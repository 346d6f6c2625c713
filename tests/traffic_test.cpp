#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/metrics.hpp"
#include "sf/mms.hpp"
#include "sim/traffic.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/registry.hpp"

namespace slimfly::sim {
namespace {

TEST(Coin, SameDrawsAndOutcomesAsBernoulli) {
  // Exact multiples of 2^-24 are the boundary cases of the integer compare.
  for (double p : {0.0, -0.5, 1.0 / 16777216.0, 3.0 / 16777216.0, 0.002, 0.1,
                   0.5, 0.999999, 1.0, 1.5}) {
    Rng a(42, 7);
    Rng b(42, 7);
    const std::uint32_t threshold = Rng::coin_threshold(p);
    for (int i = 0; i < 200000; ++i) {
      ASSERT_EQ(a.bernoulli(p), b.coin(threshold)) << "p=" << p << " i=" << i;
    }
    EXPECT_EQ(a.next_u32(), b.next_u32()) << "p=" << p;
  }
  // x / 2^24 < k / 2^24 holds for exactly k draws x.
  EXPECT_EQ(Rng::coin_threshold(3.0 / 16777216.0), 3u);
  EXPECT_EQ(Rng::coin_threshold(0.5), 1u << 23);
  EXPECT_EQ(Rng::coin_threshold(0.5 + 0.25 / 16777216.0), (1u << 23) + 1);
}

TEST(Uniform, NeverSelf) {
  auto t = make_uniform(16);
  Rng rng(1);
  for (int s = 0; s < 16; ++s) {
    for (int trial = 0; trial < 50; ++trial) {
      int d = t->destination(s, rng);
      EXPECT_NE(d, s);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, 16);
    }
  }
}

TEST(Uniform, CoversAllDestinations) {
  auto t = make_uniform(8);
  Rng rng(2);
  std::vector<int> hits(8, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    ++hits[static_cast<std::size_t>(t->destination(0, rng))];
  }
  EXPECT_EQ(hits[0], 0);
  for (int d = 1; d < 8; ++d) EXPECT_GT(hits[static_cast<std::size_t>(d)], 150);
}

TEST(Shuffle, RotatesAddressBits) {
  auto t = make_shuffle(16);  // 16 active, 4 bits
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0001, rng), 0b0010);
  EXPECT_EQ(t->destination(0b1000, rng), 0b0001);
  EXPECT_EQ(t->destination(0b1010, rng), 0b0101);
  EXPECT_EQ(t->destination(0b0000, rng), -1);  // fixed point -> idle
}

TEST(Shuffle, DeactivatesBeyondPowerOfTwo) {
  auto t = make_shuffle(20);  // active = 16
  Rng rng(1);
  for (int s = 16; s < 20; ++s) {
    EXPECT_EQ(t->destination(s, rng), -1);
    EXPECT_FALSE(t->is_active(s));
  }
}

TEST(BitReversal, ReversesBits) {
  auto t = make_bit_reversal(16);
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0001, rng), 0b1000);
  EXPECT_EQ(t->destination(0b0011, rng), 0b1100);
  EXPECT_EQ(t->destination(0b0110, rng), -1);  // palindrome -> self -> idle
}

TEST(BitComplement, Complements) {
  auto t = make_bit_complement(16);
  Rng rng(1);
  EXPECT_EQ(t->destination(0b0000, rng), 0b1111);
  EXPECT_EQ(t->destination(0b1010, rng), 0b0101);
  // Complement never fixes a point: all 16 active.
  for (int s = 0; s < 16; ++s) EXPECT_TRUE(t->is_active(s));
}

TEST(BitPermutations, AreInvolutionsOrPermutations) {
  // Destination maps must be injective on the active set.
  for (auto* factory : {&make_shuffle, &make_bit_reversal, &make_bit_complement}) {
    auto t = (*factory)(32);
    Rng rng(1);
    std::vector<int> seen(32, 0);
    for (int s = 0; s < 32; ++s) {
      int d = t->destination(s, rng);
      if (d >= 0) ++seen[static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < 32; ++d) EXPECT_LE(seen[static_cast<std::size_t>(d)], 1);
  }
}

TEST(Shift, MatchesPaperDefinition) {
  auto t = make_shift(100);
  Rng rng(3);
  for (int s = 0; s < 100; ++s) {
    for (int trial = 0; trial < 20; ++trial) {
      int d = t->destination(s, rng);
      int base = s % 50;
      EXPECT_TRUE(d == base || d == base + 50) << "s=" << s << " d=" << d;
      EXPECT_NE(d, s);
    }
  }
}

TEST(WorstCaseSf, OverloadsSingleLinks) {
  sf::SlimFlyMMS topo(5);
  auto t = make_worst_case_sf(topo);
  Rng rng(4);
  // Pattern is a fixed endpoint map; count how many distinct source routers
  // target the most popular router: that is the link-overload factor.
  std::vector<int> router_hits(static_cast<std::size_t>(topo.num_routers()), 0);
  int active = 0;
  for (int e = 0; e < topo.num_endpoints(); ++e) {
    int d = t->destination(e, rng);
    if (d < 0) continue;
    ++active;
    EXPECT_NE(topo.endpoint_router(d), topo.endpoint_router(e));
    ++router_hits[static_cast<std::size_t>(topo.endpoint_router(d))];
  }
  EXPECT_GT(active, topo.num_endpoints() / 3);  // construction covers most routers
  int max_hits = *std::max_element(router_hits.begin(), router_hits.end());
  // Some router receives from >= 3 full routers' worth of endpoints.
  EXPECT_GE(max_hits, 3 * topo.concentration());
}

TEST(WorstCaseSf, SendersUseTwoHopPaths) {
  sf::SlimFlyMMS topo(5);
  auto t = make_worst_case_sf(topo);
  Rng rng(5);
  auto dist_ok = [&](int e, int d) {
    auto dv = analysis::bfs_distances(topo.graph(), topo.endpoint_router(e));
    int dd = dv[static_cast<std::size_t>(topo.endpoint_router(d))];
    return dd >= 1 && dd <= 2;
  };
  for (int e = 0; e < topo.num_endpoints(); e += 5) {
    int d = t->destination(e, rng);
    if (d >= 0) {
      EXPECT_TRUE(dist_ok(e, d));
    }
  }
}

// The Figure 9 construction written against an all-pairs BFS matrix, as a
// reference for the adjacency-only test the pattern itself uses.
std::vector<int> worst_case_sf_reference(const Topology& topo) {
  const Graph& g = topo.graph();
  const int ner = topo.num_endpoint_routers();
  std::vector<std::vector<int>> dist;
  for (int r = 0; r < topo.num_routers(); ++r) {
    dist.push_back(analysis::bfs_distances(g, r));
  }
  std::vector<int> target(static_cast<std::size_t>(topo.num_routers()), -1);
  auto at = [&](int r) -> int& { return target[static_cast<std::size_t>(r)]; };
  auto d = [&](int u, int v) {
    return dist[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
  };
  for (const auto& [rx, ry] : g.edges()) {
    if (rx >= ner || ry >= ner || at(rx) != -1 || at(ry) != -1) continue;
    bool any = false;
    for (int ri : g.neighbors(ry)) {
      if (ri != rx && ri < ner && at(ri) == -1 && d(ri, rx) == 2) {
        at(ri) = rx;
        any = true;
      }
    }
    for (int rb : g.neighbors(rx)) {
      if (rb != ry && rb < ner && at(rb) == -1 && d(rb, ry) == 2) {
        at(rb) = ry;
        any = true;
      }
    }
    if (!any) continue;
    for (int ri : g.neighbors(ry)) {
      if (at(ri) == rx) {
        at(rx) = ri;
        break;
      }
    }
    for (int rb : g.neighbors(rx)) {
      if (at(rb) == ry) {
        at(ry) = rb;
        break;
      }
    }
  }
  std::vector<int> dst(static_cast<std::size_t>(topo.num_endpoints()), -1);
  for (int e = 0; e < topo.num_endpoints(); ++e) {
    const int t = at(topo.endpoint_router(e));
    if (t >= 0) {
      dst[static_cast<std::size_t>(e)] =
          topo.first_endpoint(t) + (e - topo.first_endpoint(topo.endpoint_router(e)));
    }
  }
  return dst;
}

TEST(WorstCaseSf, DestinationMapMatchesBfsReference) {
  // Dragonfly groups are cliques, so neighbours of Ry are often adjacent;
  // the random DLN graph mixes adjacent and non-adjacent neighbour pairs.
  for (const char* spec : {"slimfly:q=5", "slimfly:q=7", "dragonfly:p=2,a=4,h=2",
                           "dln:n=36,k=6,p=2,seed=3"}) {
    SCOPED_TRACE(spec);
    auto topo = topo::make(spec);
    auto t = make_worst_case_sf(*topo);
    const std::vector<int> want = worst_case_sf_reference(*topo);
    ASSERT_NE(std::count(want.begin(), want.end(), -1),
              static_cast<long>(want.size()));
    Rng rng(8);
    for (int e = 0; e < topo->num_endpoints(); ++e) {
      EXPECT_EQ(t->destination(e, rng), want[static_cast<std::size_t>(e)]) << "e=" << e;
    }
  }
}

TEST(WorstCaseDf, TargetsSuccessorGroup) {
  auto df = Dragonfly::balanced(2);
  auto t = make_worst_case_df(*df);
  Rng rng(6);
  for (int e = 0; e < df->num_endpoints(); ++e) {
    int src_group = df->group_of(df->endpoint_router(e));
    int d = t->destination(e, rng);
    EXPECT_EQ(df->group_of(df->endpoint_router(d)),
              (src_group + 1) % df->groups());
  }
}

TEST(WorstCaseFt, CrossesPods) {
  FatTree3 ft(3, FatTreeVariant::PaperSlim);
  auto t = make_worst_case_ft(ft);
  Rng rng(7);
  for (int e = 0; e < ft.num_endpoints(); ++e) {
    int d = t->destination(e, rng);
    EXPECT_NE(ft.pod(ft.endpoint_router(e)), ft.pod(ft.endpoint_router(d)));
  }
}

}  // namespace
}  // namespace slimfly::sim
