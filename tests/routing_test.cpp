// Routing algorithms in isolation: path validity, length bounds, and the
// distance table they share.

#include <gtest/gtest.h>

#include <set>

#include "sf/mms.hpp"
#include "sim/network.hpp"
#include "sim/routing/dragonfly_routing.hpp"
#include "sim/routing/minimal.hpp"
#include "sim/routing/oracle.hpp"
#include "sim/routing/ugal.hpp"
#include "sim/routing/valiant.hpp"
#include "sim/simulation.hpp"
#include "topo/dragonfly.hpp"
#include "topo/hypercube.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

template <typename PathLike>  // InlinePath or std::vector<int>
bool is_walk(const Graph& g, const PathLike& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!g.has_edge(path[i], path[i + 1])) return false;
  }
  return true;
}

TEST(DistanceTable, MatchesBfsOnSlimFly) {
  sf::SlimFlyMMS topo(5);
  DistanceTable dt(topo.graph());
  EXPECT_EQ(dt.diameter(), 2);
  for (int u = 0; u < 50; u += 3) {
    for (int v = 0; v < 50; v += 7) {
      if (u == v) {
        EXPECT_EQ(dt.dist(u, v), 0);
      } else if (topo.graph().has_edge(u, v)) {
        EXPECT_EQ(dt.dist(u, v), 1);
      } else {
        EXPECT_EQ(dt.dist(u, v), 2);
      }
    }
  }
}

TEST(DistanceTable, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW(DistanceTable{g}, std::invalid_argument);
}

TEST(DistanceTable, SampledPathsAreMinimalWalks) {
  Hypercube hc(5);
  DistanceTable dt(hc.graph());
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    int u = rng.next_int(0, 31), v = rng.next_int(0, 31);
    InlinePath path{u};
    dt.sample_minimal_path(hc.graph(), u, v, rng, path);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, dt.dist(u, v));
    EXPECT_TRUE(is_walk(hc.graph(), path));
    EXPECT_EQ(path.back(), v);
  }
}

TEST(DistanceTable, SamplingCoversAllMinimalNextHops) {
  // From any SF router there are multiple minimal paths to a distance-2
  // target through distinct common neighbours only when they exist; for the
  // Hoffman-Singleton graph the common neighbour is unique, so the sampled
  // intermediate must be constant. Use the hypercube instead for diversity.
  Hypercube hc(4);
  DistanceTable dt(hc.graph());
  Rng rng(3);
  int u = 0, v = 3;  // distance 2, two minimal intermediates: 1 and 2
  std::set<int> intermediates;
  for (int t = 0; t < 100; ++t) {
    InlinePath path{u};
    dt.sample_minimal_path(hc.graph(), u, v, rng, path);
    ASSERT_EQ(path.size(), 3u);
    intermediates.insert(path[1]);
  }
  EXPECT_EQ(intermediates.size(), 2u);
}

class RoutingPaths : public ::testing::Test {
 protected:
  RoutingPaths()
      : topo_(7),
        bundle_(make_routing(RoutingKind::Minimal, topo_)),
        traffic_(make_uniform(topo_.num_endpoints())),
        net_(topo_, *bundle_.algorithm, *traffic_, SimConfig{}, 0.0) {}

  Packet make_pkt(int src_ep, int dst_ep) {
    Packet p;
    p.src_endpoint = src_ep;
    p.dst_endpoint = dst_ep;
    p.dst_router =
        static_cast<std::uint16_t>(topo_.endpoint_router(dst_ep));
    return p;
  }

  int src_router_of(const Packet& p) const {
    return topo_.endpoint_router(p.src_endpoint);
  }

  sf::SlimFlyMMS topo_;
  RoutingBundle bundle_;
  std::unique_ptr<TrafficPattern> traffic_;
  Network net_;
};

TEST_F(RoutingPaths, MinimalAtMostTwoHops) {
  MinimalRouting routing(topo_, *bundle_.distances);
  Rng rng(1);
  for (int t = 0; t < 300; ++t) {
    Packet p = make_pkt(rng.next_int(0, topo_.num_endpoints() - 1),
                        rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_LE(p.path.size(), 3u);  // <= 2 links
    EXPECT_TRUE(is_walk(topo_.graph(), p.path));
    EXPECT_EQ(p.path.front(), src_router_of(p));
    EXPECT_EQ(p.path.back(), p.dst_router);
  }
}

TEST_F(RoutingPaths, ValiantAtMostFourHops) {
  ValiantRouting routing(topo_, *bundle_.distances);
  Rng rng(2);
  for (int t = 0; t < 300; ++t) {
    Packet p = make_pkt(0, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_LE(p.path.size(), 5u);  // 2, 3 or 4 links per Section IV-B
    EXPECT_TRUE(is_walk(topo_.graph(), p.path));
  }
}

TEST_F(RoutingPaths, ValiantHopLimitRespected) {
  ValiantRouting routing(topo_, *bundle_.distances, 3);
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    Packet p = make_pkt(1, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_LE(p.path.size(), 4u);
  }
}

TEST_F(RoutingPaths, UgalChoosesMinimalAtZeroLoad) {
  // With all queues empty, UGAL's cost reduces to hop count: it must pick
  // the minimal path.
  UgalRouting routing(topo_, *bundle_.distances, UgalMode::Local);
  Rng rng(4);
  for (int t = 0; t < 200; ++t) {
    Packet p = make_pkt(5, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_EQ(static_cast<int>(p.path.size()) - 1,
              bundle_.distances->dist(src_router_of(p), p.dst_router));
  }
}

TEST_F(RoutingPaths, UgalGlobalChoosesMinimalAtZeroLoad) {
  UgalRouting routing(topo_, *bundle_.distances, UgalMode::Global);
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    Packet p = make_pkt(9, rng.next_int(0, topo_.num_endpoints() - 1));
    routing.route_at_injection(net_, p, rng);
    EXPECT_EQ(static_cast<int>(p.path.size()) - 1,
              bundle_.distances->dist(src_router_of(p), p.dst_router));
  }
}

TEST(DragonflySampler, PathsStayValid) {
  auto df = Dragonfly::balanced(2);
  DistanceTable dt(df->graph());
  auto sampler = dragonfly_group_sampler(*df, dt);
  Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    int src = rng.next_int(0, df->num_routers() - 1);
    int dst = rng.next_int(0, df->num_routers() - 1);
    InlinePath path;
    sampler(src, dst, rng, path);
    EXPECT_EQ(path.front(), src);
    if (src != dst) {
      EXPECT_EQ(path.back(), dst);
    }
    EXPECT_TRUE(is_walk(df->graph(), path));
    EXPECT_LE(path.size(), 7u);  // <= 6 links for group-Valiant
  }
}

TEST(InlinePathLimits, OverflowThrowsNamedError) {
  InlinePath p;
  for (int i = 0; i < InlinePath::kMaxRouters; ++i) p.push_back(i);
  EXPECT_EQ(p.size(), static_cast<std::size_t>(InlinePath::kMaxRouters));
  EXPECT_THROW(p.push_back(1), PathOverflowError);
  // Router ids are stored as uint16; anything wider is a named error, not
  // silent truncation.
  InlinePath q;
  EXPECT_THROW(q.push_back(70000), PathOverflowError);
  EXPECT_THROW(q.push_back(-1), PathOverflowError);
}

TEST(RoutingBase, NextRouterFollowsPath) {
  sf::SlimFlyMMS topo(5);
  auto bundle = make_routing(RoutingKind::Minimal, topo);
  auto traffic = make_uniform(topo.num_endpoints());
  Network net(topo, *bundle.algorithm, *traffic, SimConfig{}, 0.0);
  Packet p;
  p.path = {0, 7, 13};
  p.hop = 0;
  EXPECT_EQ(bundle.algorithm->next_router(net, p, 0), 7);
  p.hop = 1;
  EXPECT_EQ(bundle.algorithm->next_router(net, p, 7), 13);
  p.hop = 2;
  EXPECT_EQ(bundle.algorithm->next_router(net, p, 13), -1);
  EXPECT_THROW(bundle.algorithm->next_router(net, p, 5), std::logic_error);
}

TEST(OracleBitIdentity, SimulateByteIdenticalUnderTableAndFamilyOracles) {
  // One simulated point per (topology, routing) cell, run with the dense
  // table and with the per-family oracle injected, sequentially and
  // router-parallel. Every stats field must be byte-identical: whichever
  // oracle make_distance_oracle picks for the router count, the results are
  // the same. VAL and the UGAL family consume RNG inside
  // sample_minimal_path, so a single extra (or missing) draw anywhere would
  // cascade into every field here.
  SimConfig cfg;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 3000;
  cfg.seed = 23;
  for (const std::string& spec :
       {std::string("slimfly:q=5"), std::string("torus:dims=4x4"),
        std::string("hypercube:n=6"), std::string("dln:n=36,k=6,p=2,seed=3"),
        std::string("dragonfly:p=2,a=4,h=2")}) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    const std::shared_ptr<const DistanceOracle> table =
        std::make_shared<DistanceTable>(topo->graph());
    const std::shared_ptr<const DistanceOracle> family = make_family_oracle(*topo);
    for (const char* routing : {"MIN", "VAL", "UGAL-L", "UGAL-G", "DF-UGAL-L"}) {
      if (!routing_supported(parse_routing_spec(routing).kind, *topo)) continue;
      SCOPED_TRACE(routing);
      for (int intra : {1, 2}) {
        SCOPED_TRACE(intra);
        cfg.intra_threads = intra;
        auto run_with = [&](const std::shared_ptr<const DistanceOracle>& oracle) {
          auto bundle = make_routing_spec(routing, *topo, oracle);
          auto traffic = make_uniform(topo->num_endpoints());
          return simulate(*topo, *bundle.algorithm, *traffic, cfg, 0.3);
        };
        const SimResult a = run_with(table);
        const SimResult b = run_with(family);
        EXPECT_EQ(a.avg_latency, b.avg_latency);
        EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
        EXPECT_EQ(a.p99_latency, b.p99_latency);
        EXPECT_EQ(a.accepted_load, b.accepted_load);
        EXPECT_EQ(a.delivered, b.delivered);
        EXPECT_EQ(a.saturated, b.saturated);
      }
    }
  }
}

TEST(RoutingFactory, TypeChecks) {
  sf::SlimFlyMMS topo(5);
  EXPECT_THROW(make_routing(RoutingKind::DragonflyUgalL, topo),
               std::invalid_argument);
  EXPECT_THROW(make_routing(RoutingKind::FatTreeAnca, topo),
               std::invalid_argument);
}

}  // namespace
}  // namespace slimfly::sim
