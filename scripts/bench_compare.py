#!/usr/bin/env python3
"""Soft-compare two BENCH_hotpath.json files and print a markdown report.

Usage: bench_compare.py OLD.json NEW.json

Joins the two batteries on cell name and prints per-cell Mcycles/s deltas,
the peak-RSS delta, and the intra-scaling curve side by side. REPORT ONLY: always exits 0 when both files parse (CI hardware
varies run to run, so throughput is recorded, never gated — the same policy
as `sweep diff` wall time). A missing or unreadable OLD file also exits 0
with a note, so the very first run of a new CI branch does not fail.

Intended consumer: the perf-smoke CI job appends the output to
$GITHUB_STEP_SUMMARY after downloading the previous run's BENCH_hotpath
artifact. Works just as well locally:

    python3 scripts/bench_compare.py /tmp/prev.json BENCH_hotpath.json
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_rate(v):
    # 3 significant digits: cell rates span orders of magnitude (a
    # fleet-scale point's Mcycles/s is ~1e-4; a tiny cell's is ~1e-1).
    return f"{v:.3g}" if isinstance(v, (int, float)) else "-"


def fmt_delta(old, new):
    """Signed percent change, or '-' when either side is missing/zero."""
    if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
        return "-"
    if old == 0:
        return "-"
    return f"{(new - old) / old * 100.0:+.1f}%"


def fmt_bytes(v):
    if not isinstance(v, (int, float)) or v <= 0:
        return "-"
    return f"{v / 2**30:.2f} GiB"


def cell_map(doc):
    return {c.get("name", f"cell{i}"): c
            for i, c in enumerate(doc.get("cells", []))}


def cell_rate(cell):
    """A cell's Mcycles/s. Artifacts written while the simulator had two
    stepping engines nest it per engine; their "cycle" engine is the
    baseline (CI's first run after the schema change compares against
    one)."""
    if "mcycles_per_sec" in cell:
        return cell["mcycles_per_sec"]
    return cell.get("engines", {}).get("cycle", {}).get("mcycles_per_sec")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2])
        return 2
    old_path, new_path = sys.argv[1], sys.argv[2]

    try:
        new = load(new_path)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read new file {new_path}: {e}")
        return 2  # the file this CI run just wrote must exist and parse

    print("### Hot-path throughput vs previous run (report only)\n")
    try:
        old = load(old_path)
    except (OSError, ValueError) as e:
        print(f"_No previous BENCH_hotpath to compare against "
              f"({old_path}: {e}). First run on this branch?_")
        return 0

    old_cells, new_cells = cell_map(old), cell_map(new)
    print("| cell | Mcyc/s (old → new) | Δ |")
    print("|---|---|---|")
    for name, cell in new_cells.items():
        prev = old_cells.get(name)
        o = cell_rate(prev) if prev else None
        n = cell_rate(cell)
        print(f"| {name} | {fmt_rate(o)} → {fmt_rate(n)} | {fmt_delta(o, n)} |")
    dropped = sorted(set(old_cells) - set(new_cells))
    if dropped:
        print(f"\n_Cells present before but not now: {', '.join(dropped)}_")

    print("\n| cell | peak RSS (old → new) | Δ |")
    print("|---|---|---|")
    for name, cell in new_cells.items():
        prev = old_cells.get(name)
        o = prev.get("peak_rss_bytes") if prev else None
        n = cell.get("peak_rss_bytes")
        print(f"| {name} | {fmt_bytes(o)} → {fmt_bytes(n)} |"
              f" {fmt_delta(o, n)} |")

    old_scaling = {p.get("workers"): p for p in old.get("intra_scaling", [])}
    new_scaling = new.get("intra_scaling", [])
    if new_scaling:
        print("\n| intra workers | Mcyc/s (old → new) | Δ |")
        print("|---|---|---|")
        for p in new_scaling:
            w = p.get("workers")
            o = old_scaling.get(w, {}).get("mcycles_per_sec")
            n = p.get("mcycles_per_sec")
            print(f"| {w} | {fmt_rate(o)} → {fmt_rate(n)} | {fmt_delta(o, n)} |")

    print("\n_Throughput and RSS are reported, never gated: CI hardware"
          " varies run to run. Investigate consistent multi-run trends, not"
          " single deltas._")
    return 0


if __name__ == "__main__":
    sys.exit(main())
