// perfbench — runs one benchmark workload through the simulator's public
// entry points and prints one JSON document of raw measurements on stdout.
// perfbench/run.py checks the simulated statistics and turns the raw numbers
// into metrics; perfbench/README.md names the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S [--trace]
//
// Untraced (the default) times only what the end-to-end metrics need: the
// set-up before the first simulated cycle and the run itself (Network::run,
// or ExperimentEngine::run for the grid). --trace also records spans (name,
// start, end, parent) around every public call: single points are stepped
// cycle by cycle through Network::step() up to the drain, which
// Network::run() then finishes — the same trajectory, so the traced results
// must equal the untraced ones bit for bit. The traced run also probes the
// oracle and injection routing on a quiescent network and, on ref-point and
// zero-load, the intra-point scaling. Spans stay in memory and are written
// out with the document when the run ends.
//
// A fixed integer loop is timed before the first repetition and after each
// one, so every document carries the host's speed over the run beside the
// times it measured.
//
// Every execution knob is either the program's default or set explicitly
// here (worker counts, suite scale); nothing is read from the environment.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "exp/experiment.hpp"
#include "exp/suite.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "sim/traffic.hpp"
#include "topo/registry.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

namespace {

using namespace slimfly;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch)
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- tracing ---------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  int parent;  ///< index into the span list, -1 for a root
};

/// In-memory span recorder. Off, it records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1u << 20);
  }
  bool on() const { return on_; }
  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), -1, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- JSON output -------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---- host calibration --------------------------------------------------------

volatile std::uint64_t g_calib_sink = 0;

/// Milliseconds for a fixed amount of dependent integer work (about 10 ms).
/// A shared host's speed drifts by tens of percent over minutes; these
/// samples measure it over the same minutes as the workload.
double calib_sample_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull ^ g_calib_sink;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_calib_sink = x;
  return seconds_since(start) * 1e3;
}

constexpr int kCalibSamples = 5;

// ---- workloads ---------------------------------------------------------------

struct Cell {
  std::string label;
  std::string topo;
  std::string routing;
  std::string traffic;
  double load = 0.0;
  sim::SimConfig config;
};

/// The fig06a suite's "small" windows, which bench/hotpath's reference cell
/// also uses.
sim::SimConfig small_windows(std::uint64_t seed) {
  sim::SimConfig cfg;
  cfg.warmup_cycles = 800;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 8000;
  cfg.seed = seed;
  cfg.intra_threads = 1;
  return cfg;
}

Cell single_point(const std::string& workload, std::uint64_t seed) {
  if (workload == "ref-point") {
    return {workload, "slimfly:q=11", "UGAL-L", "uniform", 0.5, small_windows(seed)};
  }
  if (workload == "zero-load") {
    // A long measurement window: at 0.002 a q=11 network moves only a
    // handful of flits per cycle, so per-cycle fixed cost dominates.
    Cell c{workload, "slimfly:q=11", "MIN", "uniform", 0.002, small_windows(seed)};
    c.config.measure_cycles = 50000;
    return c;
  }
  if (workload == "fleet-point") {
    // examples/suites/scale_smoke.json's network and windows.
    Cell c{workload, "slimfly:q=47", "MIN", "uniform", 0.05, small_windows(seed)};
    c.config.num_vcs = 2;
    c.config.buffer_per_port = 32;
    c.config.warmup_cycles = 100;
    c.config.measure_cycles = 200;
    c.config.drain_cycles = 1500;
    return c;
  }
  throw std::invalid_argument("unknown workload \"" + workload + "\"");
}

/// One set-up of a single point: everything built before the first cycle.
/// Members are destroyed in reverse order, the Network first.
struct Built {
  std::unique_ptr<Topology> topo;
  sim::RoutingBundle routing;
  std::unique_ptr<sim::TrafficPattern> traffic;
  std::unique_ptr<sim::Network> net;
};

Built build(const Cell& cell, int intra_threads, Tracer& tr) {
  Built b;
  {
    Scope s(tr, "topo.make");
    b.topo = topo::make(cell.topo);
  }
  {
    Scope s(tr, "routing.make");
    b.routing = sim::make_routing_spec(cell.routing, *b.topo);
  }
  {
    Scope s(tr, "traffic.make");
    b.traffic = sim::make_traffic(cell.traffic, *b.topo);
  }
  sim::SimConfig cfg = cell.config;
  cfg.intra_threads = intra_threads;
  // simulate()'s rule: enough VCs for the longest path the routing produces.
  cfg.num_vcs = std::max(cfg.num_vcs, b.routing.algorithm->max_hops());
  {
    Scope s(tr, "net.construct");
    b.net = std::make_unique<sim::Network>(*b.topo, *b.routing.algorithm,
                                           *b.traffic, cfg, cell.load);
  }
  return b;
}

struct PointOut {
  std::string tag;
  std::string label;
  double load = 0.0;
  sim::SimResult res;
  double wall_s = 0.0;
  double done_s = 0.0;  ///< completion time from the grid's start (grid only)
};

struct Doc {
  std::vector<double> calib_ms;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<PointOut> points;
  struct Scaling {
    int repeat;
    int workers;
    double wall_s;
  };
  std::vector<Scaling> scaling;
  std::map<std::string, std::int64_t> counts;
  std::map<std::string, std::string> resolved;
};

void calibrate(Doc& doc) {
  for (int i = 0; i < kCalibSamples; ++i) doc.calib_ms.push_back(calib_sample_ms());
}

/// Set-up samples of one repetition: `samples` batches of `batch` builds,
/// each sample the batch's mean build time (tear-down is not timed). The
/// first batch starts with the repetition's own pre-run build, `first_ns`
/// (cold in the first repetition), when there is one (`first_ns` >= 0);
/// the other builds are rebuilds after the run, on the warm heap it left
/// behind. Batching smooths the millisecond jitter of one small build, and
/// spreading the batches over the whole measurement smooths the host's
/// slower and faster spells.
template <typename BuildOnce>
void time_setup(std::int64_t first_ns, std::size_t samples, int batch,
                BuildOnce&& build_once, Doc& doc) {
  for (std::size_t i = 0; i < samples; ++i) {
    std::int64_t total_ns = 0;
    int j = 0;
    if (i == 0 && first_ns >= 0) {
      total_ns = first_ns;
      j = 1;
    }
    for (; j < batch; ++j) {
      const std::int64_t start = now_ns();
      auto built = build_once();
      total_ns += now_ns() - start;
    }
    doc.setup_s.push_back(static_cast<double>(total_ns) * 1e-9 / batch);
  }
}

/// Calls rep(0), rep(1), ... while one more repetition, as long as the last,
/// is expected to end within `seconds`; always at least once. The host is
/// calibrated before the first repetition and after each one.
template <typename Rep>
void repeat_for(double seconds, Doc& doc, Rep&& rep) {
  const std::int64_t first = now_ns();
  double last_s = 0.0;
  calibrate(doc);
  for (int i = 0; i == 0 || seconds_since(first) + last_s <= seconds; ++i) {
    const std::int64_t start = now_ns();
    rep(i);
    calibrate(doc);
    last_s = seconds_since(start);
  }
}

// ---- probes (traced run only) ---------------------------------------------

constexpr double kProbeSeconds = 0.15;

/// Times DistanceOracle::dist and sample_minimal_path over seeded random
/// router pairs, in batches, until kProbeSeconds each.
void probe_oracle(const sim::DistanceOracle& oracle, const Topology& topo,
                  std::uint64_t seed, Tracer& tr, Doc& doc) {
  Rng rng(seed, 0x0AC1E);
  const int n = topo.num_routers();
  std::vector<std::pair<int, int>> pairs;
  while (pairs.size() < 4096) {
    const int u = rng.next_int(0, n - 1);
    const int v = rng.next_int(0, n - 1);
    if (u != v) pairs.emplace_back(u, v);
  }
  std::int64_t sink = 0;
  {
    Scope s(tr, "oracle.dist");
    const std::int64_t start = now_ns();
    do {
      for (const auto& [u, v] : pairs) sink += oracle.dist(u, v);
      doc.counts["oracle.dist"] += static_cast<std::int64_t>(pairs.size());
    } while (seconds_since(start) < kProbeSeconds);
  }
  {
    Scope s(tr, "oracle.sample");
    sim::InlinePath path;
    const std::int64_t start = now_ns();
    do {
      for (const auto& [u, v] : pairs) {
        path.clear();
        oracle.sample_minimal_path(topo.graph(), u, v, rng, path);
        sink += static_cast<std::int64_t>(path.size());
      }
      doc.counts["oracle.sample"] += static_cast<std::int64_t>(pairs.size());
    } while (seconds_since(start) < kProbeSeconds);
  }
  g_calib_sink = g_calib_sink + static_cast<std::uint64_t>(sink);
}

/// Times RoutingAlgorithm::route_at_injection for seeded random packets on a
/// network that has not stepped yet, with a routing instance of its own so
/// the measured network's routing is never touched.
void probe_injection(const std::string& routing_spec, const Topology& topo,
                     std::shared_ptr<const sim::DistanceOracle> distances,
                     sim::Network& net, std::uint64_t seed, Tracer& tr, Doc& doc) {
  auto routing = sim::make_routing_spec(routing_spec, topo, std::move(distances));
  Rng rng(seed, 0x1A1EC7);
  const int endpoints = topo.num_endpoints();
  std::vector<std::pair<int, int>> pairs;
  while (pairs.size() < 4096) {
    const int src = rng.next_int(0, endpoints - 1);
    const int dst = rng.next_int(0, endpoints - 1);
    if (topo.endpoint_router(src) != topo.endpoint_router(dst)) {
      pairs.emplace_back(src, dst);
    }
  }
  std::int64_t sink = 0;
  Scope s(tr, "routing.inject");
  const std::int64_t start = now_ns();
  do {
    for (const auto& [src, dst] : pairs) {
      sim::Packet pkt;
      pkt.src_endpoint = src;
      pkt.dst_endpoint = dst;
      pkt.dst_router = static_cast<std::uint16_t>(topo.endpoint_router(dst));
      routing.algorithm->route_at_injection(net, pkt, rng);
      sink += static_cast<std::int64_t>(pkt.path.size());
    }
    doc.counts["routing.inject"] += static_cast<std::int64_t>(pairs.size());
  } while (seconds_since(start) < kProbeSeconds);
  g_calib_sink = g_calib_sink + static_cast<std::uint64_t>(sink);
}

// ---- single points -----------------------------------------------------------

sim::SimResult run_traced(sim::Network& net, const sim::SimConfig& cfg,
                          Tracer& tr, Doc& doc) {
  auto step = [&] {
    const std::int64_t before = net.flit_hops();
    {
      Scope s(tr, "net.step");
      net.step();
    }
    if (net.flit_hops() == before) ++doc.counts["net.zero_grant_steps"];
  };
  {
    Scope s(tr, "net.warmup");
    while (net.cycle() < cfg.warmup_cycles) step();
  }
  {
    Scope s(tr, "net.measure");
    while (net.cycle() < cfg.warmup_cycles + cfg.measure_cycles) step();
  }
  Scope s(tr, "net.drain");
  return net.run();  // continues from the current cycle: drain only
}

void run_single(const Cell& cell, std::uint64_t seed, double seconds, Tracer& tr,
                Doc& doc) {
  Tracer off(false);
  const bool fleet = cell.label == "fleet-point";
  repeat_for(seconds, doc, [&](int rep) {
    std::int64_t setup_ns = 0;
    {
      Scope rep_span(tr, "rep");
      Built b;
      {
        Scope s(tr, "setup");
        const std::int64_t start = now_ns();
        b = build(cell, 1, tr);
        setup_ns = now_ns() - start;
      }
      if (rep == 0) {
        doc.resolved["intra_threads"] = std::to_string(b.net->intra_threads());
        doc.resolved["team"] = std::to_string(b.net->team());
        if (tr.on()) {
          Scope s(tr, "probe");
          probe_oracle(*b.routing.distances, *b.topo, seed, tr, doc);
          probe_injection(cell.routing, *b.topo, b.routing.distances, *b.net, seed,
                          tr, doc);
        }
      }
      PointOut p{"rep" + std::to_string(rep), cell.label, cell.load, {}, 0.0, 0.0};
      const std::int64_t start = now_ns();
      if (tr.on()) {
        Scope s(tr, "net.run");
        p.res = run_traced(*b.net, cell.config, tr, doc);
      } else {
        p.res = b.net->run();
      }
      p.wall_s = seconds_since(start);
      doc.wall_s.push_back(p.wall_s);
      doc.points.push_back(std::move(p));
    }
    time_setup(setup_ns, fleet ? 5 : 4, fleet ? 1 : 8,
               [&] { return build(cell, 1, off); }, doc);
  });

  // Intra-point scaling: the whole point at 1, 2 and 4 stepping workers,
  // interleaved, three times. Its results are checked like any other.
  if (tr.on() && (cell.label == "ref-point" || cell.label == "zero-load")) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (int workers : {1, 2, 4}) {
        Built b = build(cell, workers, off);
        PointOut p{"scaling.w" + std::to_string(workers), cell.label, cell.load,
                   {}, 0.0, 0.0};
        const std::int64_t start = now_ns();
        p.res = b.net->run();
        p.wall_s = seconds_since(start);
        doc.scaling.push_back({repeat, workers, p.wall_s});
        doc.points.push_back(std::move(p));
      }
    }
  }
}

// ---- the fig06a grid -------------------------------------------------------

constexpr const char* kGridSuite = "examples/suites/fig06a.json";
constexpr std::size_t kGridWorkers = 3;
constexpr double kGridMaxLoad = 0.3;

/// Builds each distinct topology of the grid and its routing (which builds
/// the distance oracle); the routings of the other series on a topology
/// share that oracle, as ExperimentEngine does.
struct GridSetup {
  std::map<std::string, std::unique_ptr<Topology>> topos;
  std::vector<sim::RoutingBundle> routings;  ///< one per series
};

GridSetup build_grid(const exp::ExperimentSpec& spec, Tracer& tr) {
  GridSetup g;
  std::map<std::string, std::shared_ptr<const sim::DistanceOracle>> oracles;
  for (const auto& s : spec.series) {
    auto& topo = g.topos[s.topology];
    if (!topo) {
      Scope span(tr, "topo.make");
      topo = topo::make(s.topology);
    }
    Scope span(tr, "routing.make");
    g.routings.push_back(sim::make_routing_spec(s.routing, *topo, oracles[s.topology]));
    if (g.routings.back().distances) oracles[s.topology] = g.routings.back().distances;
  }
  return g;
}

void run_grid(std::uint64_t seed, double seconds, Tracer& tr, Doc& doc) {
  const exp::Suite suite = exp::load_suite_file(kGridSuite);
  exp::ExperimentSpec spec = exp::suite_to_spec(suite, "small");
  // The loads below every series' saturation only: past it, points pile
  // up source-queue backlogs whose allocation (and so the process peak
  // RSS) depends on which points happen to run together.
  spec.loads.erase(std::remove_if(spec.loads.begin(), spec.loads.end(),
                                  [](double l) { return l > kGridMaxLoad; }),
                   spec.loads.end());
  spec.config.seed = seed;
  spec.config.intra_threads = 1;
  exp::ExperimentEngine engine(kGridWorkers);
  const auto sched = engine.schedule(spec.series.size() * spec.loads.size(),
                                     spec.config.intra_threads);
  doc.resolved["engine_threads"] = std::to_string(engine.threads());
  doc.resolved["across"] = std::to_string(sched.first);
  doc.resolved["intra_threads"] = std::to_string(sched.second);
  doc.resolved["scale"] = exp::resolve_scale(suite, "small");

  Tracer off(false);
  repeat_for(seconds, doc, [&](int rep) {
    {
      Scope rep_span(tr, "rep");
      // ExperimentEngine builds its own topologies and routings; the traced
      // run builds them once more, outside it, for the per-layer build
      // times and the probes.
      GridSetup g;
      if (tr.on()) {
        Scope s(tr, "setup");
        g = build_grid(spec, tr);
      }

      if (rep == 0 && tr.on()) {
        // Probes on each series' network before it steps: Network
        // construction, injection routing, and each distinct oracle once.
        Scope s(tr, "probe");
        std::set<const sim::DistanceOracle*> probed;
        for (std::size_t i = 0; i < spec.series.size(); ++i) {
          const auto& series = spec.series[i];
          const sim::RoutingBundle& routing = g.routings[i];
          const Topology& topo = *g.topos.at(series.topology);
          auto traffic = sim::make_traffic(series.traffic, topo);
          sim::SimConfig cfg = spec.config;
          cfg.num_vcs = std::max(cfg.num_vcs, routing.algorithm->max_hops());
          std::unique_ptr<sim::Network> net;
          {
            Scope c(tr, "net.construct");
            net = std::make_unique<sim::Network>(topo, *routing.algorithm, *traffic,
                                                 cfg, spec.loads.front());
          }
          probe_injection(series.routing, topo, routing.distances, *net, seed, tr,
                          doc);
          if (routing.distances && probed.insert(routing.distances.get()).second) {
            probe_oracle(*routing.distances, topo, seed, tr, doc);
          }
        }
      }

      std::map<std::pair<std::size_t, double>, double> done;
      std::vector<exp::RunResult> results;
      const std::int64_t start = now_ns();
      {
        Scope s(tr, "exp.grid");
        if (tr.on()) {
          const std::int64_t grid_start = now_ns();
          results = engine.run(spec, [&](const exp::PreparedSeries&,
                                         const exp::RunResult& r) {
            done[{r.series_index, r.load}] = seconds_since(grid_start);
          });
        } else {
          results = engine.run(spec);
        }
      }
      doc.wall_s.push_back(seconds_since(start));
      for (const auto& r : results) {
        PointOut p{"rep" + std::to_string(rep),
                   spec.series.at(r.series_index).display_label(), r.load, r.result,
                   r.wall_seconds, 0.0};
        auto it = done.find({r.series_index, r.load});
        if (it != done.end()) p.done_s = it->second;
        doc.points.push_back(std::move(p));
      }
    }
    time_setup(-1, 4, 8, [&] { return build_grid(spec, off); }, doc);
  });
}

// ---- main --------------------------------------------------------------------

void write_doc(std::ostream& os, const std::string& workload, std::uint64_t seed,
               const Tracer& tr, const Doc& doc) {
  os << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
     << ", \"traced\": " << (tr.on() ? "true" : "false") << ",\n";
  os << "\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << quote(std::string("gcc-compatible ") + __VERSION__)
     << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
     << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false") << "},\n";
  os << "\"resolved\": {";
  bool first = true;
  for (const auto& [k, v] : doc.resolved) {
    os << (first ? "" : ", ") << quote(k) << ": " << quote(v);
    first = false;
  }
  os << "},\n\"peak_rss_bytes\": " << peak_rss_bytes() << ",\n";
  auto list = [&](const char* key, const std::vector<double>& v) {
    os << quote(key) << ": [";
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << num(v[i]);
    os << "],\n";
  };
  list("calib_ms", doc.calib_ms);
  list("setup_s", doc.setup_s);
  list("wall_s", doc.wall_s);
  os << "\"points\": [\n";
  for (std::size_t i = 0; i < doc.points.size(); ++i) {
    const PointOut& p = doc.points[i];
    os << "  {\"tag\": " << quote(p.tag) << ", \"label\": " << quote(p.label)
       << ", \"load\": " << num(p.load) << ", \"cycles\": " << p.res.cycles
       << ", \"flit_hops\": " << p.res.flit_hops
       << ", \"delivered\": " << p.res.delivered
       << ", \"latency\": " << num(p.res.avg_latency)
       << ", \"p99\": " << num(p.res.p99_latency)
       << ", \"accepted\": " << num(p.res.accepted_load)
       << ", \"saturated\": " << (p.res.saturated ? "true" : "false")
       << ", \"wall_s\": " << num(p.wall_s) << ", \"done_s\": " << num(p.done_s)
       << "}" << (i + 1 < doc.points.size() ? "," : "") << "\n";
  }
  os << "],\n\"scaling\": [";
  for (std::size_t i = 0; i < doc.scaling.size(); ++i) {
    const auto& s = doc.scaling[i];
    os << (i ? ", " : "") << "{\"repeat\": " << s.repeat
       << ", \"workers\": " << s.workers << ", \"wall_s\": " << num(s.wall_s) << "}";
  }
  os << "],\n\"counts\": {";
  first = true;
  for (const auto& [k, v] : doc.counts) {
    os << (first ? "" : ", ") << quote(k) << ": " << v;
    first = false;
  }
  // Spans as [name, start_ns, end_ns, parent] with names interned.
  std::vector<std::string> names;
  std::map<const char*, std::size_t> name_index;
  for (const Span& s : tr.spans()) {
    if (name_index.emplace(s.name, names.size()).second) names.push_back(s.name);
  }
  os << "},\n\"span_names\": [";
  for (std::size_t i = 0; i < names.size(); ++i) os << (i ? ", " : "") << quote(names[i]);
  os << "],\n\"spans\": [";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    os << (i ? ",\n" : "\n") << "[" << name_index[s.name] << ", " << s.start << ", "
       << s.end << ", " << s.parent << "]";
  }
  os << "]}\n";
}

int usage() {
  std::cerr << "usage: perfbench --workload fig6-sweep|ref-point|fleet-point|"
               "zero-load --seed N --seconds S [--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool checked_build = true;
#else
  const bool checked_build = false;
#endif
  if (checked_build || build_type == "Debug" || !sanitize.empty()) {
    std::cerr << "perfbench: refusing to measure a " << build_type
              << (sanitize.empty() ? "" : " sanitizer (" + sanitize + ")")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 1;
  }

  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = true;
      } else {
        return usage();
      }
    }
    if (workload.empty()) return usage();

    Tracer tr(trace);
    Doc doc;
    if (workload == "fig6-sweep") {
      run_grid(seed, seconds, tr, doc);
    } else {
      run_single(single_point(workload, seed), seed, seconds, tr, doc);
    }
    std::ostringstream os;
    write_doc(os, workload, seed, tr, doc);
    std::cout << os.str() << std::flush;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
