// Hot-path microbenchmark: a small battery of simulation points reporting
// the stepping loop's work rate — simulated Mcycles/s and flit-hops/s (one
// flit-hop per crossbar grant). Writes BENCH_hotpath.json for the CI
// perf-smoke job, which uploads it as an artifact; throughput is reported,
// never gated, matching the `sweep diff` wall-time policy.
//
// Battery cells:
//   * reference — slimfly:q=11 | UGAL-L | uniform @ 0.5, the README's
//     before/after point (busy network: every router works every cycle).
//   * lowload   — torus:dims=8x8x8 | MIN | stencil3d @ 0.002, a mostly-idle
//     network where skipping routers without work dominates.
//   * drain     — slimfly:q=11 | UGAL-L | uniform @ 0.7, where the
//     post-injection drain tail is the bulk of the simulated cycles.
//   * sparse-burst — slimfly:q=11 | MIN | ON/OFF tenants @ 0.02, long idle
//     stretches between bursts.
//
//   hotpath [--topo SPEC] [--routing SPEC] [--traffic NAME] [--load L]
//           [--out PATH]
//
// Passing any of --topo/--routing/--traffic/--load replaces the battery
// with that single custom cell.
// SF_BENCH_SCALE / SF_INTRA_THREADS apply as everywhere else.

#include <cstring>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exp/json.hpp"
#include "sim/network.hpp"
#include "util/rss.hpp"

namespace {

using namespace slimfly;

int usage(const char* argv0, int code) {
  std::cout << "usage: " << argv0
            << " [--topo SPEC] [--routing SPEC] [--traffic NAME]\n"
               "       [--load L] [--out PATH]\n"
               "defaults: the four-cell battery (reference / lowload / "
               "drain /\nsparse-burst), BENCH_hotpath.json; any cell flag "
               "switches to a single\ncustom cell.\n";
  return code;
}

struct Cell {
  std::string name;
  std::string topo;
  std::string routing;
  std::string traffic;
  double load = 0.5;
  /// Extra simulated cycles for cells whose wall time would otherwise be
  /// too short to time reliably (0 = the SF_BENCH_SCALE default).
  std::int64_t min_measure = 0;
};

struct CellRun {
  sim::SimResult res;
  double wall = 0.0;
  double mcyc = 0.0;
  double fhps = 0.0;
};

struct CellResult {
  Cell cell;
  CellRun run;
  /// Process peak RSS after this cell's run — monotone over the process,
  /// so the first (largest-network) cell is the meaningful reading; the CI
  /// soft-compare reports its delta PR-over-PR, never gates it.
  std::uint64_t peak_rss = 0;
};

CellRun run_cell(const Cell& cell, int intra_override = -1) {
  auto topo = topo::make(cell.topo);
  auto bundle = sim::make_routing_spec(cell.routing, *topo);
  auto traffic = sim::make_traffic(cell.traffic, *topo);
  sim::SimConfig cfg = bench::make_sim_config();
  if (intra_override >= 0) cfg.intra_threads = intra_override;
  if (cfg.num_vcs < bundle.algorithm->max_hops()) {
    cfg.num_vcs = bundle.algorithm->max_hops();
  }
  if (cfg.measure_cycles < cell.min_measure) {
    cfg.measure_cycles = cell.min_measure;
  }

  sim::Network net(*topo, *bundle.algorithm, *traffic, cfg, cell.load);
  // Pre-reserve the latency pools so the measured region is exactly the
  // allocation-free steady-state loop (tests/hotpath_test.cpp asserts
  // that property under a counting allocator).
  net.reserve_measurement_stats();
  Timer timer;
  CellRun run;
  run.res = net.run();
  run.wall = timer.seconds();
  if (run.wall > 0.0) {
    run.mcyc = static_cast<double>(run.res.cycles) / run.wall / 1e6;
    run.fhps = static_cast<double>(run.res.flit_hops) / run.wall;
  }
  return run;
}

void print_run_line(const CellRun& r) {
  std::cout << "  " << exp::json::number(r.mcyc) << " Mcycles/s, "
            << exp::json::number(r.fhps) << " flit-hops/s, wall "
            << exp::json::number(r.wall) << " s, cycles " << r.res.cycles
            << "\n";
}

void write_run_json(std::ostream& os, const CellRun& r) {
  const char* in = "      ";
  os << in << "\"cycles\": " << r.res.cycles << ",\n"
     << in << "\"flit_hops\": " << r.res.flit_hops << ",\n"
     << in << "\"wall_seconds\": " << exp::json::number(r.wall) << ",\n"
     << in << "\"mcycles_per_sec\": " << exp::json::number(r.mcyc) << ",\n"
     << in << "\"flit_hops_per_sec\": " << exp::json::number(r.fhps) << ",\n"
     << in << "\"latency\": " << exp::json::number(r.res.avg_latency)
     << ",\n"
     << in << "\"accepted\": " << exp::json::number(r.res.accepted_load)
     << ",\n"
     << in << "\"saturated\": " << (r.res.saturated ? "true" : "false")
     << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  Cell custom{"custom", "slimfly:q=11", "UGAL-L", "uniform", 0.5, 0};
  bool single = false;

  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--topo")) {
        custom.topo = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--routing")) {
        custom.routing = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--traffic")) {
        custom.traffic = next_arg(i);
        single = true;
      } else if (!std::strcmp(argv[i], "--load")) {
        std::size_t pos = 0;
        custom.load = std::stod(next_arg(i), &pos);
        if (custom.load <= 0.0)
          throw std::invalid_argument("--load must be > 0");
        single = true;
      } else if (!std::strcmp(argv[i], "--out")) {
        out_path = next_arg(i);
      } else {
        return usage(argv[0], 2);
      }
    }

    // Host shape, so every BENCH log records how the machine was used —
    // the numbers are execution-only, results never depend on them.
    std::cout << "[host] hardware_concurrency="
              << std::thread::hardware_concurrency()
              << " intra_threads=" << exp::intra_threads_from_env()
              << " (SF_INTRA_THREADS; 0 = all cores per point)\n"
              << std::flush;

    std::vector<Cell> cells;
    if (single) {
      cells.push_back(custom);
    } else {
      cells.push_back(
          {"reference", "slimfly:q=11", "UGAL-L", "uniform", 0.5, 0});
      // The low-load cell gets a longer measured window: at ~1 injected
      // packet per cycle network-wide its wall time would otherwise be too
      // short to time.
      cells.push_back({"lowload", "torus:dims=8x8x8", "MIN", "stencil3d",
                       0.002, 6000});
      cells.push_back(
          {"drain", "slimfly:q=11", "UGAL-L", "uniform", 0.7, 0});
      // Sparse ON/OFF tenants: long OFF segments leave most routers idle,
      // so the cell records how much of the burst workload's idle time
      // skipping routers without work reclaims.
      cells.push_back({"sparse-burst", "slimfly:q=11", "MIN",
                       "burst:on=40,off=2000,mult=25,base=uniform", 0.02,
                       6000});
    }

    std::vector<CellResult> results;
    for (const Cell& cell : cells) {
      std::cout << "hotpath[" << cell.name << "]: " << cell.topo << " | "
                << cell.routing << " | " << cell.traffic << " @ "
                << cell.load << "\n";
      CellResult r;
      r.cell = cell;
      r.run = run_cell(cell);
      r.peak_rss = peak_rss_bytes();
      print_run_line(r.run);
      results.push_back(std::move(r));
    }

    // Intra-point scaling curve: the reference cell re-run with fixed
    // stepping teams of 1/2/4 (+ all hardware threads when the host has
    // more). Recorded in the BENCH trajectory so the
    // multi-core speedup (or, on small hosts, the barrier overhead of
    // oversubscribed teams) is a tracked number, not folklore. Results are
    // bit-identical for every team size; only the wall time moves.
    struct ScalePoint {
      int workers;
      double wall;
      double mcyc;
    };
    std::vector<ScalePoint> scaling;
    if (!single) {
      std::vector<int> teams = {1, 2, 4};
      const int hw = static_cast<int>(std::thread::hardware_concurrency());
      if (hw > 4) teams.push_back(hw);
      std::cout << "hotpath[scaling]: " << cells.front().topo
                << " | intra team sweep\n";
      for (int w : teams) {
        CellRun r = run_cell(cells.front(), w);
        scaling.push_back({w, r.wall, r.mcyc});
        std::cout << "  intra=" << w << ": " << exp::json::number(r.mcyc)
                  << " Mcycles/s, wall " << exp::json::number(r.wall)
                  << " s\n";
      }
    }

    std::ofstream os(out_path);
    if (!os) throw std::invalid_argument("cannot write \"" + out_path + "\"");
    os << "{\n  \"bench\": \"hotpath\",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      os << "    {\n"
         << "      \"name\": " << exp::json::quote(r.cell.name) << ",\n"
         << "      \"topology\": " << exp::json::quote(r.cell.topo) << ",\n"
         << "      \"routing\": " << exp::json::quote(r.cell.routing)
         << ",\n"
         << "      \"traffic\": " << exp::json::quote(r.cell.traffic)
         << ",\n"
         << "      \"load\": " << exp::json::number(r.cell.load) << ",\n"
         << "      \"peak_rss_bytes\": " << r.peak_rss << ",\n";
      write_run_json(os, r.run);
      os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    // The first cell's numbers also land at the top level, keeping older
    // BENCH_hotpath.json consumers working.
    const CellResult& head = results.front();
    os << "  ],\n";
    if (!scaling.empty()) {
      os << "  \"intra_scaling\": [\n";
      for (std::size_t i = 0; i < scaling.size(); ++i) {
        os << "    {\"workers\": " << scaling[i].workers
           << ", \"wall_seconds\": " << exp::json::number(scaling[i].wall)
           << ", \"mcycles_per_sec\": " << exp::json::number(scaling[i].mcyc)
           << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
      }
      os << "  ],\n";
    }
    os << "  \"topology\": " << exp::json::quote(head.cell.topo) << ",\n"
       << "  \"routing\": " << exp::json::quote(head.cell.routing) << ",\n"
       << "  \"traffic\": " << exp::json::quote(head.cell.traffic) << ",\n"
       << "  \"load\": " << exp::json::number(head.cell.load) << ",\n"
       << "  \"intra_threads\": " << exp::intra_threads_from_env() << ",\n"
       << "  \"cycles\": " << head.run.res.cycles << ",\n"
       << "  \"flit_hops\": " << head.run.res.flit_hops << ",\n"
       << "  \"wall_seconds\": " << exp::json::number(head.run.wall)
       << ",\n"
       << "  \"mcycles_per_sec\": " << exp::json::number(head.run.mcyc)
       << ",\n"
       << "  \"flit_hops_per_sec\": " << exp::json::number(head.run.fhps)
       << ",\n"
       << "  \"latency\": "
       << exp::json::number(head.run.res.avg_latency) << ",\n"
       << "  \"accepted\": "
       << exp::json::number(head.run.res.accepted_load) << ",\n"
       << "  \"saturated\": "
       << (head.run.res.saturated ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
