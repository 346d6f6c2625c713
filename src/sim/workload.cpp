#include "sim/workload.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "exp/json.hpp"

namespace slimfly::sim {

namespace {

namespace json = ::slimfly::exp::json;

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw std::invalid_argument(where + ": " + msg);
}

/// Strict decimal parse for endpoint ids and message indices: digits only,
/// capped at 9 chars so the value always fits an int32.
long parse_decimal(const std::string& where, const std::string& text,
                   const std::string& what) {
  if (text.empty() || text.size() > 9 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    fail(where, what + " \"" + text + "\" is not a decimal number");
  }
  return std::stol(text);
}

std::string msg_id(int endpoint, std::int64_t index) {
  return std::to_string(endpoint) + "." + std::to_string(index);
}

/// Rejects any dependency cycle over the combined graph: explicit `after:`
/// edges plus the implicit per-endpoint FIFO edges (e,i−1)→(e,i). A pure
/// Kahn pass finds whether a cycle exists; the error then walks predecessor
/// links from an unprocessed message until it revisits one, so the named
/// message is genuinely on a cycle (not merely downstream of one).
void check_acyclic(const std::string& where, const WorkloadTrace& trace,
                   const std::vector<int>& slot_of_endpoint) {
  // Flat node ids: offset[slot] + message index.
  std::vector<std::size_t> offset(trace.endpoints.size() + 1, 0);
  for (std::size_t s = 0; s < trace.endpoints.size(); ++s) {
    offset[s + 1] = offset[s] + trace.endpoints[s].second.size();
  }
  const std::size_t total = offset.back();
  auto node_of = [&](int endpoint, std::int64_t index) {
    return offset[static_cast<std::size_t>(
               slot_of_endpoint[static_cast<std::size_t>(endpoint)])] +
           static_cast<std::size_t>(index);
  };

  std::vector<int> indegree(total, 0);
  std::vector<std::vector<std::size_t>> out(total);
  for (std::size_t s = 0; s < trace.endpoints.size(); ++s) {
    const auto& [endpoint, msgs] = trace.endpoints[s];
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const std::size_t v = offset[s] + i;
      if (i > 0) {  // FIFO edge from the previous message
        out[v - 1].push_back(v);
        ++indegree[v];
      }
      if (msgs[i].dep_src >= 0) {
        const std::size_t d = node_of(msgs[i].dep_src, msgs[i].dep_idx);
        out[d].push_back(v);
        ++indegree[v];
      }
    }
  }

  std::vector<std::size_t> ready;
  ready.reserve(total);
  for (std::size_t v = 0; v < total; ++v) {
    if (indegree[v] == 0) ready.push_back(v);
  }
  std::size_t processed = 0;
  std::vector<int> remaining = indegree;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    ++processed;
    for (std::size_t w : out[v]) {
      if (--remaining[w] == 0) ready.push_back(w);
    }
  }
  if (processed == total) return;

  // Name a message on the cycle: every unprocessed node has an unprocessed
  // predecessor, so walking predecessors must revisit within `total` steps.
  auto slot_index_of = [&](std::size_t v) {
    std::size_t s = 0;
    while (offset[s + 1] <= v) ++s;
    return std::make_pair(s, static_cast<std::int64_t>(v - offset[s]));
  };
  std::size_t v = 0;
  while (remaining[v] == 0) ++v;
  std::vector<char> seen(total, 0);
  while (!seen[v]) {
    seen[v] = 1;
    const auto [s, i] = slot_index_of(v);
    const auto& msgs = trace.endpoints[s].second;
    const auto& m = msgs[static_cast<std::size_t>(i)];
    if (m.dep_src >= 0 && remaining[node_of(m.dep_src, m.dep_idx)] > 0) {
      v = node_of(m.dep_src, m.dep_idx);
    } else {
      v = offset[s] + static_cast<std::size_t>(i) - 1;  // FIFO predecessor
    }
  }
  const auto [s, i] = slot_index_of(v);
  fail(where, "dependency cycle involving message " +
                  msg_id(trace.endpoints[s].first, i) +
                  " (after: edges plus per-endpoint FIFO order must form a "
                  "DAG)");
}

/// Self-clocked replay of a validated WorkloadTrace. Endpoint e's head
/// message is eligible once its `after:` dependency has been delivered and
/// its FIFO predecessor has been sent; eligibility flips only in the serial
/// between-cycles completion pass (Network::apply_completions), so the
/// replay schedule is identical for every shard count.
/// All state is preallocated at construction — the hot path never allocates.
class DependencyReplay final : public TrafficPattern {
 public:
  DependencyReplay(int num_endpoints, const WorkloadTrace& trace,
                   std::string display_name)
      : name_(std::move(display_name)),
        msgs_(static_cast<std::size_t>(num_endpoints)),
        cursor_(static_cast<std::size_t>(num_endpoints), 0),
        head_ready_(static_cast<std::size_t>(num_endpoints), 0),
        delivered_at_(static_cast<std::size_t>(num_endpoints)) {
    const std::string where = "traffic \"" + name_ + "\"";
    for (const auto& [endpoint, list] : trace.endpoints) {
      if (endpoint < 0 || endpoint >= num_endpoints) {
        fail(where, "trace endpoint " + std::to_string(endpoint) +
                        " out of range (topology has " +
                        std::to_string(num_endpoints) + " endpoints)");
      }
      const auto e = static_cast<std::size_t>(endpoint);
      msgs_[e] = list;
      delivered_at_[e].assign(list.size(), -1);
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].dst < 0 || list[i].dst >= num_endpoints) {
          fail(where,
               "message " + msg_id(endpoint, static_cast<std::int64_t>(i)) +
                   " destination " + std::to_string(list[i].dst) +
                   " out of range (topology has " +
                   std::to_string(num_endpoints) + " endpoints)");
        }
      }
    }
  }

  std::string name() const override { return name_; }
  /* SF_HOT */ int destination(int src, Rng& rng) override {
    // Self-clocked patterns generate through next_send; the Bernoulli
    // destination hook is never consulted by the engine.
    (void)src;
    (void)rng;
    return -1;
  }
  bool is_active(int src) const override {
    return !msgs_[static_cast<std::size_t>(src)].empty();
  }

  bool self_clocked() const override { return true; }

  /* SF_HOT */ int next_send(int src, std::int64_t cycle,
                std::int64_t* dep_stall) override {
    const auto e = static_cast<std::size_t>(src);
    const auto c = static_cast<std::size_t>(cursor_[e]);
    if (c >= msgs_[e].size()) return -1;
    const TraceMessage& m = msgs_[e][c];
    if (!dep_satisfied(m)) return -1;
    if (dep_stall) {
      // The engine pops an eligible head at the first injection phase after
      // max(FIFO-ready, dependency-delivered), so cycle − head_ready_ is
      // exactly the dependency-induced wait (0 for dependency-free sends).
      *dep_stall =
          m.dep_src >= 0 ? std::max<std::int64_t>(0, cycle - head_ready_[e])
                         : 0;
    }
    ++cursor_[e];
    head_ready_[e] = cycle + 1;
    return m.dst;
  }

  /* SF_HOT */ void on_delivered(int src, std::int64_t seq,
                                std::int64_t cycle) override {
    const auto e = static_cast<std::size_t>(src);
    if (e >= msgs_.size() || seq < 0 ||
        static_cast<std::size_t>(seq) >= msgs_[e].size()) {
      return;
    }
    delivered_at_[e][static_cast<std::size_t>(seq)] = cycle;
  }

 private:
  bool dep_satisfied(const TraceMessage& m) const {
    return m.dep_src < 0 ||
           delivered_at_[static_cast<std::size_t>(m.dep_src)]
                        [static_cast<std::size_t>(m.dep_idx)] >= 0;
  }

  std::string name_;
  std::vector<std::vector<TraceMessage>> msgs_;
  std::vector<std::int64_t> cursor_;      ///< next message index per endpoint
  std::vector<std::int64_t> head_ready_;  ///< cycle the head became FIFO-ready
  std::vector<std::vector<std::int64_t>> delivered_at_;  ///< −1 = in flight
};

int log2_exact(int v) {
  int bits = 0;
  while ((1 << (bits + 1)) <= v) ++bits;
  return bits;
}

}  // namespace

WorkloadTrace parse_workload_trace(const std::string& text,
                                   const std::string& origin) {
  const std::string where =
      origin.empty() ? std::string("workload trace") : origin;
  json::Value root = json::parse(text, origin);
  if (!root.is_object()) fail(where, "expected a trace object at top level");

  WorkloadTrace out;
  out.name = "trace";
  const json::Value* endpoints = nullptr;
  for (const auto& [key, value] : root.object) {
    if (key == "trace") {
      out.name = value.as_string(where + ": trace");
    } else if (key == "endpoints") {
      endpoints = &value;
    } else {
      fail(where, "unknown key \"" + key +
                      "\" (a trace has \"trace\" and \"endpoints\")");
    }
  }
  if (!endpoints) fail(where, "missing \"endpoints\" object");
  const auto& members = endpoints->as_object(where + ": endpoints");
  if (members.empty()) {
    fail(where, "\"endpoints\" must list at least one endpoint");
  }

  // Pass 1: endpoints, destinations, and raw `after:` references (resolved
  // in pass 2 once every endpoint's list length is known).
  std::unordered_set<int> declared;
  std::vector<std::vector<std::string>> raw_after;
  for (const auto& [key, value] : members) {
    const int endpoint =
        static_cast<int>(parse_decimal(where, key, "endpoint key"));
    if (!declared.insert(endpoint).second) {
      // The JSON layer rejects textually duplicate keys; this catches
      // numerically equal spellings like "7" vs "007".
      fail(where, "endpoint " + std::to_string(endpoint) +
                      " is declared more than once");
    }
    const std::string ctx = where + ": endpoint " + std::to_string(endpoint);
    std::vector<TraceMessage> msgs;
    std::vector<std::string> afters;
    for (const auto& entry : value.as_array(ctx)) {
      const std::string mctx =
          where + ": message " +
          msg_id(endpoint, static_cast<std::int64_t>(msgs.size()));
      if (!entry.is_object()) fail(where, mctx + " must be an object");
      TraceMessage m;
      std::string after;
      for (const auto& [mkey, mval] : entry.object) {
        if (mkey == "dst") {
          const double d = mval.as_number(mctx + ": dst");
          if (d < 0 || d > 2147483647.0 || d != static_cast<int>(d)) {
            fail(where, mctx + ": dst must be a non-negative endpoint id");
          }
          m.dst = static_cast<int>(d);
        } else if (mkey == "after") {
          after = mval.as_string(mctx + ": after");
        } else {
          fail(where, mctx + ": unknown key \"" + mkey +
                          "\" (a message has \"dst\" and \"after\")");
        }
      }
      if (m.dst < 0) fail(where, mctx + " is missing \"dst\"");
      if (m.dst == endpoint) fail(where, mctx + " sends to itself");
      msgs.push_back(m);
      afters.push_back(after);
    }
    out.endpoints.emplace_back(endpoint, std::move(msgs));
    raw_after.push_back(std::move(afters));
  }

  // Pass 2: resolve `after:` references against the declared lists.
  int max_endpoint = 0;
  for (const auto& [endpoint, msgs] : out.endpoints) {
    (void)msgs;
    max_endpoint = std::max(max_endpoint, endpoint);
  }
  std::vector<int> slot_of(static_cast<std::size_t>(max_endpoint) + 1, -1);
  for (std::size_t s = 0; s < out.endpoints.size(); ++s) {
    slot_of[static_cast<std::size_t>(out.endpoints[s].first)] =
        static_cast<int>(s);
  }
  for (std::size_t s = 0; s < out.endpoints.size(); ++s) {
    auto& [endpoint, msgs] = out.endpoints[s];
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const std::string& ref = raw_after[s][i];
      if (ref.empty()) continue;
      const std::string mctx = where + ": message " +
                               msg_id(endpoint, static_cast<std::int64_t>(i)) +
                               ": after \"" + ref + "\"";
      const auto dot = ref.find('.');
      if (dot == std::string::npos) {
        fail(where, mctx + " is not of the form \"<endpoint>.<index>\"");
      }
      const int dep_src = static_cast<int>(
          parse_decimal(mctx, ref.substr(0, dot), "endpoint"));
      const std::int64_t dep_idx =
          parse_decimal(mctx, ref.substr(dot + 1), "message index");
      if (dep_src > max_endpoint ||
          slot_of[static_cast<std::size_t>(dep_src)] < 0) {
        fail(where, mctx + " references undeclared endpoint " +
                        std::to_string(dep_src));
      }
      const auto& dep_list =
          out.endpoints[static_cast<std::size_t>(
                            slot_of[static_cast<std::size_t>(dep_src)])]
              .second;
      if (static_cast<std::size_t>(dep_idx) >= dep_list.size()) {
        fail(where, mctx + " references a message that does not exist "
                        "(endpoint " + std::to_string(dep_src) + " has " +
                        std::to_string(dep_list.size()) + " messages)");
      }
      if (dep_src == endpoint && static_cast<std::size_t>(dep_idx) == i) {
        fail(where, mctx + " depends on itself");
      }
      msgs[i].dep_src = dep_src;
      msgs[i].dep_idx = dep_idx;
    }
  }

  check_acyclic(where, out, slot_of);
  return out;
}

WorkloadTrace load_workload_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw std::invalid_argument(
        "cannot read trace file \"" + path +
        "\" (the path resolves against the working directory)");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_workload_trace(buffer.str(), path);
}

WorkloadTrace make_allreduce_trace(int ranks, const std::string& algo) {
  if (ranks < 2) {
    throw std::invalid_argument("allreduce: ranks must be >= 2");
  }
  WorkloadTrace out;
  out.name = "allreduce-" + algo;
  if (algo == "ring") {
    // Reduce-scatter then all-gather: 2(R−1) phased rounds around the ring.
    // Round k of rank i forwards to (i+1) mod R and waits for the chunk it
    // received in round k−1 from (i−1) mod R.
    const int rounds = 2 * (ranks - 1);
    for (int i = 0; i < ranks; ++i) {
      std::vector<TraceMessage> msgs;
      msgs.reserve(static_cast<std::size_t>(rounds));
      for (int k = 0; k < rounds; ++k) {
        TraceMessage m;
        m.dst = (i + 1) % ranks;
        if (k > 0) {
          m.dep_src = (i - 1 + ranks) % ranks;
          m.dep_idx = k - 1;
        }
        msgs.push_back(m);
      }
      out.endpoints.emplace_back(i, std::move(msgs));
    }
    return out;
  }
  if (algo == "tree") {
    if ((ranks & (ranks - 1)) != 0) {
      throw std::invalid_argument(
          "allreduce: algo=tree requires power-of-two ranks (got " +
          std::to_string(ranks) + ")");
    }
    // Binomial reduce to rank 0, then binomial broadcast back out. Each
    // message waits on the arrival that ends its phase (messages carry a
    // single `after:` edge; the per-endpoint FIFO serializes the rest).
    const int levels = log2_exact(ranks);
    auto ctz = [](int v) {
      int c = 0;
      while (((v >> c) & 1) == 0) ++c;
      return c;
    };
    for (int j = 0; j < ranks; ++j) {
      std::vector<TraceMessage> msgs;
      const int c = j == 0 ? levels : ctz(j);
      if (j != 0) {  // reduce: send the partial up at phase c
        TraceMessage m;
        m.dst = j - (1 << c);
        if (c > 0) {
          m.dep_src = j + (1 << (c - 1));  // last child to report
          m.dep_idx = 0;
        }
        msgs.push_back(m);
      }
      // broadcast: forward the result down at phases c−1 .. 0.
      for (int t = c - 1; t >= 0; --t) {
        TraceMessage m;
        m.dst = j + (1 << t);
        if (t == c - 1) {  // first forward waits for the result to arrive
          if (j == 0) {
            m.dep_src = ranks / 2;  // the root's last reduce arrival
            m.dep_idx = 0;
          } else {
            // Parent p = j − 2^c forwards to j as its broadcast message for
            // phase c; compute that message's index in p's list.
            const int p = j - (1 << c);
            const int pc = p == 0 ? levels : ctz(p);
            m.dep_src = p;
            m.dep_idx = (p == 0 ? 0 : 1) + (pc - 1 - c);
          }
        }
        msgs.push_back(m);
      }
      out.endpoints.emplace_back(j, std::move(msgs));
    }
    return out;
  }
  throw std::invalid_argument("allreduce: unknown algo \"" + algo +
                              "\" (ring or tree)");
}

std::unique_ptr<TrafficPattern> make_dependency_replay(
    int num_endpoints, const WorkloadTrace& trace, std::string display_name) {
  if (num_endpoints < 2) {
    throw std::invalid_argument("dependency replay: need >= 2 endpoints");
  }
  return std::make_unique<DependencyReplay>(num_endpoints, trace,
                                            std::move(display_name));
}

}  // namespace slimfly::sim
