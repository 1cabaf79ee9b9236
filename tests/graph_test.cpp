#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "csr_reference.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "tree/builders.h"

namespace rit::graph {
namespace {

using reference::expect_csr_matches_reference;
using reference::scrambled_with_duplicates;
using reference::sort_unique_reference;

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, AdjacencyAndDegrees) {
  Graph g(4, {{0, 1}, {0, 2}, {2, 1}, {3, 0}});
  EXPECT_EQ(g.num_edges(), 4u);
  auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.in_degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(Graph, DeduplicatesParallelEdges) {
  Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_THROW(Graph(2, {{0, 0}}), CheckFailure);
  EXPECT_THROW(Graph(2, {{0, 2}}), CheckFailure);
}

TEST(Graph, SourcesAreInDegreeZeroNodes) {
  Graph g(4, {{0, 1}, {1, 2}});
  const auto s = g.sources();
  EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 3}));
}

TEST(Graph, EdgesRoundTrip) {
  std::vector<Edge> in{{0, 1}, {1, 2}, {2, 0}};
  Graph g(3, in);
  EXPECT_EQ(g.edges(), in);
}

TEST(GraphCsr, MatchesSortUniqueReference) {
  // Random edge lists with duplicates, in drawn and in reversed order.
  rng::Rng rng(5);
  for (const std::uint32_t n : {2u, 7u, 300u}) {
    SCOPED_TRACE(n);
    std::vector<Edge> edges;
    for (int i = 0; i < 4000; ++i) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
      auto v = static_cast<std::uint32_t>(rng.uniform_index(n - 1));
      if (v >= u) ++v;
      edges.push_back({u, v});
    }
    expect_csr_matches_reference(n, edges);
    expect_csr_matches_reference(n, {edges.rbegin(), edges.rend()});
  }
  // Isolated nodes: only nodes 0..9 of 50 carry edges, and node 0 none.
  expect_csr_matches_reference(
      50, {{9, 1}, {3, 4}, {1, 2}, {9, 8}, {3, 4}, {2, 9}, {1, 3}});
  expect_csr_matches_reference(1, {});
  expect_csr_matches_reference(0, {});
  // Every edge from one source, descending, each twice.
  std::vector<Edge> hub;
  for (std::uint32_t v = 999; v >= 1; --v) {
    hub.push_back({0, v});
    hub.push_back({0, v});
  }
  expect_csr_matches_reference(1000, hub);
}

TEST(GraphCsr, GeneratorGraphsMatchReference) {
  rng::Rng r1(31);
  rng::Rng r2(32);
  rng::Rng r3(33);
  rng::Rng r4(34);
  const Graph graphs[] = {barabasi_albert(5000, 3, r1),
                          erdos_renyi(2000, 0.003, r2),
                          watts_strogatz(3000, 6, 0.3, r3),
                          configuration_model(4000, 2.0, 200, r4)};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.num_nodes());
    const std::vector<Edge> input = scrambled_with_duplicates(g.edges());
    expect_csr_matches_reference(g.num_nodes(), input);
    EXPECT_EQ(sort_unique_reference(input), g.edges());
  }
}

/// FNV-1a over the node count, the (from, to) edge list and the in-degrees.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.num_nodes());
  for (const Edge& e : g.edges()) mix((std::uint64_t{e.from} << 32) | e.to);
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) mix(g.in_degree(u));
  return h;
}

TEST(GraphCsr, GeneratorOutputPinned) {
  // Digests of the generator graphs at pinned seeds, as produced by the
  // comparison-sort CSR build: a change to a generator's random stream or
  // to the CSR build's output shows up here.
  rng::Rng r1(31);
  rng::Rng r2(32);
  rng::Rng r3(33);
  rng::Rng r4(34);
  EXPECT_EQ(csr_digest(barabasi_albert(5000, 3, r1)),
            0xda09d18c3c4a8b1cULL);
  EXPECT_EQ(csr_digest(erdos_renyi(2000, 0.003, r2)),
            0x504752d5e3cf7da1ULL);
  EXPECT_EQ(csr_digest(watts_strogatz(3000, 6, 0.3, r3)),
            0x3378ee23b3e71e0eULL);
  EXPECT_EQ(csr_digest(configuration_model(4000, 2.0, 200, r4)),
            0xa8865f596b54ccb8ULL);
}

TEST(GraphCsr, BarabasiAlbertStreamPinnedAcrossEdgesPerNode) {
  // The BA draw stream at m = 1, 2 and 5 (m = 3 is pinned above), and the
  // forest the trial path builds from the same draws.
  const std::pair<std::uint32_t, std::uint64_t> pinned[] = {
      {1, 0x2e4c9398d566c278ULL},
      {2, 0x78d23ed3ef245663ULL},
      {5, 0xdfd7e42d22aae535ULL}};
  for (const auto& [m, digest] : pinned) {
    SCOPED_TRACE(m);
    rng::Rng rng(40 + m);
    EXPECT_EQ(csr_digest(barabasi_albert(5000, m, rng)), digest);
  }
  rng::Rng rng(46);
  const std::vector<std::uint32_t> parents =
      tree::barabasi_albert_forest(5000, 3, 10, rng).parents();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t p : parents) {
    for (int b = 0; b < 4; ++b) {
      h ^= (p >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0xf173786e3903b855ULL);
}

TEST(Generators, BarabasiAlbertShape) {
  rng::Rng rng(1);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Seed clique has 4*3 edges; each later node adds exactly 3 in-edges.
  EXPECT_EQ(g.num_edges(), 12u + (500u - 4u) * 3u);
  for (std::uint32_t v = 4; v < 500; ++v) {
    EXPECT_GE(g.in_degree(v), 3u);
  }
}

TEST(Generators, BarabasiAlbertIsHeavyTailed) {
  rng::Rng rng(2);
  const Graph g = barabasi_albert(2000, 2, rng);
  std::size_t max_deg = 0;
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  // Preferential attachment produces hubs far above the mean degree (~2).
  EXPECT_GT(max_deg, 20u);
}

TEST(Generators, BarabasiAlbertDeterministicGivenSeed) {
  rng::Rng a(7);
  rng::Rng b(7);
  EXPECT_EQ(barabasi_albert(200, 3, a).edges(),
            barabasi_albert(200, 3, b).edges());
}

// Every sink call of barabasi_albert_draws, in call order.
struct BaDraw {
  std::uint32_t node;
  std::vector<std::uint32_t> picked;
};

std::vector<BaDraw> ba_draws(std::uint32_t n, std::uint32_t m,
                             rng::Rng& rng) {
  std::vector<BaDraw> out;
  barabasi_albert_draws(n, m, rng,
                        [&out](std::uint32_t v,
                               std::span<const std::uint32_t> picked) {
                          out.push_back({v, {picked.begin(), picked.end()}});
                        });
  return out;
}

TEST(BarabasiAlbertDraws, SinkSeesEachLaterNodeOnceInAscendingOrder) {
  rng::Rng rng(3);
  const std::vector<BaDraw> draws = ba_draws(300, 3, rng);
  ASSERT_EQ(draws.size(), 300u - 4u);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    EXPECT_EQ(draws[i].node, 4u + i);
  }
}

TEST(BarabasiAlbertDraws, PicksAreDistinctAndBelowTheirNode) {
  rng::Rng rng(4);
  for (const BaDraw& d : ba_draws(400, 4, rng)) {
    ASSERT_EQ(d.picked.size(), 4u) << "node " << d.node;
    const std::set<std::uint32_t> distinct(d.picked.begin(), d.picked.end());
    EXPECT_EQ(distinct.size(), d.picked.size()) << "node " << d.node;
    for (std::uint32_t u : d.picked) EXPECT_LT(u, d.node);
  }
}

TEST(BarabasiAlbertDraws, GraphIsTheCliquePlusTheDraws) {
  rng::Rng a(5);
  rng::Rng b(5);
  const std::vector<BaDraw> draws = ba_draws(250, 2, a);
  const Graph g = barabasi_albert(250, 2, b);
  std::vector<Edge> edges;
  for (std::uint32_t u = 0; u < 3; ++u) {
    for (std::uint32_t v = 0; v < 3; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  for (const BaDraw& d : draws) {
    for (std::uint32_t u : d.picked) edges.push_back({u, d.node});
  }
  EXPECT_EQ(Graph(250, std::move(edges)).edges(), g.edges());
}

TEST(BarabasiAlbertDraws, LeavesTheCallerStreamWhereTheGraphBuildDoes) {
  rng::Rng a(6);
  rng::Rng b(6);
  ba_draws(300, 3, a);
  barabasi_albert(300, 3, b);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  rng::Rng fresh(6);
  rng::Rng again(6);
  ba_draws(300, 3, again);
  EXPECT_NE(fresh.next_u64(), again.next_u64());
}

TEST(BarabasiAlbertDraws, CliqueAloneDrawsNothing) {
  rng::Rng rng(7);
  EXPECT_TRUE(ba_draws(4, 3, rng).empty());
  rng::Rng fresh(7);
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(BarabasiAlbertDraws, PicksFavourHighDegreeNodes) {
  // Preferential attachment: the seed clique collects far more picks than
  // a node from the second half of the arrivals.
  rng::Rng rng(8);
  const std::uint32_t n = 2000;
  std::vector<std::uint32_t> picks(n, 0);
  for (const BaDraw& d : ba_draws(n, 2, rng)) {
    for (std::uint32_t u : d.picked) ++picks[u];
  }
  double seed_mean = 0.0;
  for (std::uint32_t u = 0; u < 3; ++u) seed_mean += picks[u] / 3.0;
  double late_mean = 0.0;
  for (std::uint32_t u = n / 2; u < n; ++u) late_mean += picks[u];
  late_mean /= n / 2;
  EXPECT_GT(seed_mean, 10.0 * late_mean)
      << "seed " << seed_mean << " late " << late_mean;
}

TEST(BarabasiAlbertDraws, RejectsBadParams) {
  rng::Rng rng(9);
  EXPECT_THROW(ba_draws(10, 0, rng), CheckFailure);
  EXPECT_THROW(ba_draws(3, 3, rng), CheckFailure);
}

TEST(Generators, ErdosRenyiDensityMatchesP) {
  rng::Rng rng(3);
  const std::uint32_t n = 300;
  const double p = 0.02;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.25 * expected);
}

TEST(Generators, ErdosRenyiExtremes) {
  rng::Rng rng(4);
  EXPECT_EQ(erdos_renyi(50, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 20u * 19u);
}

TEST(Generators, WattsStrogatzUnrewiredIsRegularRing) {
  rng::Rng rng(5);
  const Graph g = watts_strogatz(20, 4, 0.0, rng);
  // Each node gets k/2 forward edges, mirrored: out-degree k.
  for (std::uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(g.out_degree(v), 4u);
  }
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(Generators, WattsStrogatzRewiredStaysSimple) {
  rng::Rng rng(6);
  const Graph g = watts_strogatz(100, 6, 0.5, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.from, e.to);
    EXPECT_LT(e.from, 100u);
    EXPECT_LT(e.to, 100u);
  }
}

TEST(Generators, ConfigurationModelDegreesWithinBounds) {
  rng::Rng rng(10);
  const Graph g = configuration_model(1000, 2.0, 50, rng);
  EXPECT_EQ(g.num_nodes(), 1000u);
  for (std::uint32_t u = 0; u < 1000; ++u) {
    EXPECT_GE(g.out_degree(u), 1u);
    EXPECT_LE(g.out_degree(u), 50u);
  }
}

TEST(Generators, ConfigurationModelIsSimple) {
  rng::Rng rng(11);
  const Graph g = configuration_model(300, 1.8, 40, rng);
  // Graph's constructor dedups; equality of edge count and stub count means
  // no duplicates were produced (or were cleanly rejected).
  for (const Edge& e : g.edges()) EXPECT_NE(e.from, e.to);
}

TEST(Generators, ConfigurationModelZipfTail) {
  // With exponent 2, P(degree = 1) ~ 1/zeta-ish dominates and the max is
  // far above the mean: heavy-tailed like a follower graph.
  rng::Rng rng(12);
  const Graph g = configuration_model(5000, 2.0, 200, rng);
  std::size_t ones = 0;
  std::size_t max_deg = 0;
  double sum = 0.0;
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    const std::size_t d = g.out_degree(u);
    ones += d == 1 ? 1 : 0;
    max_deg = std::max(max_deg, d);
    sum += static_cast<double>(d);
  }
  EXPECT_GT(static_cast<double>(ones) / g.num_nodes(), 0.45);
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * sum / g.num_nodes());
}

TEST(Generators, ConfigurationModelDeterministicAndValidating) {
  rng::Rng a(13);
  rng::Rng b(13);
  EXPECT_EQ(configuration_model(200, 2.2, 30, a).edges(),
            configuration_model(200, 2.2, 30, b).edges());
  rng::Rng rng(14);
  EXPECT_THROW(configuration_model(1, 2.0, 1, rng), CheckFailure);
  EXPECT_THROW(configuration_model(10, 1.0, 3, rng), CheckFailure);
  EXPECT_THROW(configuration_model(10, 2.0, 10, rng), CheckFailure);
}

TEST(Generators, ConfigurationModelDegenerateMaxDegree) {
  // max_degree = n-1 forces the rejection fallback into action sometimes;
  // the result must still be simple and complete.
  rng::Rng rng(15);
  const Graph g = configuration_model(12, 1.2, 11, rng);
  for (const Edge& e : g.edges()) EXPECT_NE(e.from, e.to);
  for (std::uint32_t u = 0; u < 12; ++u) EXPECT_GE(g.out_degree(u), 1u);
}

TEST(Generators, StarAndPathAndComplete) {
  const Graph s = star(5);
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.out_degree(0), 4u);
  const Graph p = path(4);
  EXPECT_TRUE(p.has_edge(0, 1));
  EXPECT_TRUE(p.has_edge(2, 3));
  EXPECT_EQ(p.num_edges(), 3u);
  const Graph c = complete(4);
  EXPECT_EQ(c.num_edges(), 12u);
}

TEST(EdgeListIo, ParsesCommentsAndRemapsIds) {
  std::istringstream in(
      "# a comment\n"
      "10 20\n"
      "20 30  # trailing comment\n"
      "\n"
      "10 30\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);  // {10,20,30} -> {0,1,2}
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(EdgeListIo, DropsSelfLoops) {
  std::istringstream in("1 1\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  std::istringstream in("1\n");
  EXPECT_THROW(read_edge_list(in), CheckFailure);
  std::istringstream in2("1 2 3\n");
  EXPECT_THROW(read_edge_list(in2), CheckFailure);
}

TEST(EdgeListIo, RejectsIdsThatAreNotPlainDecimal) {
  // Ids are plain decimal in [0, 2^64-1]. A sign, prefix, fraction or
  // overflow is a clean error naming the line, never a wrapped id ("-1"
  // read as 2^64-1) or a truncated one.
  for (const char* bad :
       {"-1 5", "1 -2", "+3 4", "0x10 2", "1.5 2", "18446744073709551616 1",
        "1 99999999999999999999"}) {
    std::istringstream in(std::string("0 1\n") + bad + "\n");
    try {
      read_edge_list(in);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeListIo, AcceptsLargestIdAndTabs) {
  std::istringstream in("18446744073709551615\t0\n\t 7  0 \r\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);  // {0, 7, 2^64-1} -> {0, 1, 2}
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeListIo, UnsortedDuplicateLinesMatchReference) {
  // File order is neither sorted nor duplicate-free, so the CSR build's
  // per-bucket sort and dedup both run.
  std::istringstream in("5 1\n5 3\n1 5\n5 1\n3 1\n5 2\n1 5\n2 3\n");
  const Graph g = read_edge_list(in);
  // Dense ids: 1->0, 2->1, 3->2, 5->3.
  const std::vector<Edge> dense{{3, 0}, {3, 2}, {0, 3}, {3, 0},
                                {2, 0}, {3, 1}, {0, 3}, {1, 2}};
  EXPECT_EQ(g.edges(), sort_unique_reference(dense));
  expect_csr_matches_reference(4, dense);
}

TEST(EdgeListIo, WriteReadRoundTrip) {
  rng::Rng rng(8);
  const Graph g = barabasi_albert(50, 2, rng);
  std::stringstream buf;
  write_edge_list(g, buf);
  const Graph g2 = read_edge_list(buf);
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.edges(), g.edges());
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/to/graph.txt"),
               CheckFailure);
}

}  // namespace
}  // namespace rit::graph
