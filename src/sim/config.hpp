#pragma once
// Simulator configuration (paper Section V, "Performance" methodology):
// single-flit packets, Bernoulli injection, input-queued routers with
// credit-based virtual-channel flow control, internal speedup 2, 64-flit
// default buffering per port, 2-cycle credit processing, 1-cycle channel /
// allocation / crossbar stages.

#include <cstdint>
#include <functional>

namespace slimfly::sim {

struct SimConfig {
  int num_vcs = 4;             ///< VC = hop index (Gopal); 4 covers <=4-hop paths
  int buffer_per_port = 64;    ///< total flit slots per input port (all VCs)
  int channel_latency = 1;     ///< cycles on the wire
  int router_pipeline = 2;     ///< SA + crossbar stages folded together
  int credit_delay = 2;        ///< cycles to return a credit upstream
  int alloc_iterations = 2;    ///< internal speedup
  int output_staging = 4;      ///< slots between crossbar and channel

  std::int64_t warmup_cycles = 2000;
  std::int64_t measure_cycles = 2000;
  std::int64_t drain_cycles = 30000;   ///< cap on the drain phase
  double latency_cap = 2000.0;         ///< declare saturation beyond this

  std::uint64_t seed = 1;

  /// Router-parallel stepping workers inside one simulation point: 1 (the
  /// default) steps sequentially, N > 1 shards routers over N workers with
  /// barriers between the cycle phases, 0 means "auto" (all hardware
  /// threads when a Network resolves it; the scheduling policy when an
  /// ExperimentEngine does — see exp/experiment.hpp). Results are
  /// bit-identical for every value: the knob only trades wall-clock time.
  int intra_threads = 1;

  /// Windowed-stats bucket width in cycles; 0 (the default) disables
  /// windowed collection. When > 0, every window of W cycles accumulates a
  /// WindowStats row (generated/delivered/latency/dependency stalls — see
  /// stats.hpp) exposed as SimResult::windows and in BENCH JSON. Pure
  /// observation: never changes simulation results, so it is excluded
  /// from exp::point_seed hashing and allowed per-series in suites.
  std::int64_t stats_window = 0;

  /// Execution-only hook the Network polls once per step(): lets an
  /// external scheduler (the experiment engine's point scheduler — see
  /// exp/experiment.hpp) grow or shrink the intra-point worker team while
  /// the point runs. The returned count is clamped to [1, intra_threads];
  /// null (the default) keeps a fixed team. Like intra_threads itself this
  /// never changes results — workers cover contiguous shard ranges between
  /// the same global phase barriers for every team size — so it is
  /// excluded from exp::point_seed hashing.
  std::function<int()> team_provider;

  /// Flit slots available to each VC.
  int buffer_per_vc() const { return buffer_per_port / num_vcs; }
};

}  // namespace slimfly::sim
