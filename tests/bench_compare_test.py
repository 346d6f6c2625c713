#!/usr/bin/env python3
"""Checks scripts/bench_compare.py against both BENCH_hotpath.json schemas:
the current one (one run per cell, rates at the cell's top level) and the
older one that nested each cell's rates per stepping engine, whose "cycle"
engine must still serve as the baseline.

    python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "bench_compare.py")


def new_cell(name, rate, rss=2**30):
    return {"name": name, "peak_rss_bytes": rss, "mcycles_per_sec": rate}


def old_cell(name, cycle_rate, active_rate, rss=2**30):
    return {"name": name, "peak_rss_bytes": rss,
            "engines": {"cycle": {"mcycles_per_sec": cycle_rate},
                        "active": {"mcycles_per_sec": active_rate}}}


class BenchCompareTest(unittest.TestCase):
    def compare(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("old.json", old), ("new.json", new)):
                path = os.path.join(tmp, name)
                if doc is not None:
                    with open(path, "w") as f:
                        json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run([sys.executable, SCRIPT] + paths,
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_new_schema_on_both_sides(self):
        code, out = self.compare(
            {"cells": [new_cell("reference", 0.001)],
             "intra_scaling": [{"workers": 2, "mcycles_per_sec": 0.002}]},
            {"cells": [new_cell("reference", 0.0015)],
             "intra_scaling": [{"workers": 2, "mcycles_per_sec": 0.001}]})
        self.assertEqual(code, 0)
        self.assertIn("| reference | 0.001 → 0.0015 | +50.0% |", out)
        self.assertIn("| 2 | 0.002 → 0.001 | -50.0% |", out)

    def test_old_schema_baseline_uses_the_cycle_engine(self):
        code, out = self.compare(
            {"cells": [old_cell("lowload", 0.05, 0.4)]},
            {"cells": [new_cell("lowload", 0.25)]})
        self.assertEqual(code, 0)
        self.assertIn("| lowload | 0.05 → 0.25 | +400.0% |", out)

    def test_cells_missing_on_one_side(self):
        code, out = self.compare(
            {"cells": [old_cell("gone", 1.0, 2.0)]},
            {"cells": [new_cell("fresh", 1.0)]})
        self.assertEqual(code, 0)
        self.assertIn("| fresh | - → 1 | - |", out)
        self.assertIn("Cells present before but not now: gone", out)

    def test_missing_previous_artifact_is_not_an_error(self):
        code, out = self.compare(None, {"cells": [new_cell("reference", 1.0)]})
        self.assertEqual(code, 0)
        self.assertIn("No previous BENCH_hotpath", out)


if __name__ == "__main__":
    unittest.main()
