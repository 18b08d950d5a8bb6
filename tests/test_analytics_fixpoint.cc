// The integer PageRank solver (PageRankLeastFixpoint, an in-place
// Gauss–Seidel ascent) against the Jacobi Kleene oracle: both must reach
// the same least fixpoint bit for bit on every graph shape that stresses
// a part of the update — cycles and self-loops, parallel edges, graphs
// that are all dangling, the empty and one-node graphs, a star into a
// dangling hub, heavy-tailed BA degrees and a DBLP-synth graph.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analytics/pagerank.h"
#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/labeled_graph.h"
#include "oracles/pagerank_jacobi.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Solver and oracle agree exactly; the ranks never exceed the scale.
void ExpectMatchesOracle(const LabeledGraph& g) {
  const CsrSnapshot csr = CsrSnapshot::FromGraph(g);
  const PageRankFixpoint got = PageRankLeastFixpoint(csr);
  const PageRankFixpoint want = JacobiPageRankFixpoint(csr);
  ASSERT_EQ(got.rank.size(), g.num_nodes());
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_LE(std::accumulate(got.rank.begin(), got.rank.end(), int64_t{0}),
            kPageRankScale);
  // After k passes the Gauss–Seidel vector dominates the k-th Jacobi
  // iterate (F is monotone), so it never needs more passes than sweeps.
  if (g.num_nodes() > 0) {
    EXPECT_GE(got.iterations, 1u);
    EXPECT_LE(got.iterations, want.iterations);
  }
}

LabeledGraph Nodes(size_t n) {
  LabeledGraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode("n");
  return g;
}

void Edge(LabeledGraph* g, NodeId from, NodeId to) {
  ASSERT_TRUE(g->AddEdge(from, to, "e").ok());
}

TEST(PageRankFixpointTest, EmptyGraph) {
  const LabeledGraph g;
  ExpectMatchesOracle(g);
  EXPECT_TRUE(PageRankLeastFixpoint(CsrSnapshot::FromGraph(g)).rank.empty());
}

TEST(PageRankFixpointTest, SingleNodeWithAndWithoutSelfLoop) {
  LabeledGraph g = Nodes(1);
  ExpectMatchesOracle(g);
  Edge(&g, 0, 0);
  ExpectMatchesOracle(g);
}

TEST(PageRankFixpointTest, NoEdgesAllDangling) {
  for (size_t n : {2u, 7u, 1000u}) {
    const LabeledGraph g = Nodes(n);
    ExpectMatchesOracle(g);
    const std::vector<int64_t> rank =
        PageRankLeastFixpoint(CsrSnapshot::FromGraph(g)).rank;
    for (int64_t r : rank) EXPECT_EQ(r, rank[0]) << "n=" << n;
  }
}

TEST(PageRankFixpointTest, ParallelEdgesCountPerEdge) {
  LabeledGraph g = Nodes(4);
  Edge(&g, 0, 1);
  Edge(&g, 0, 1);
  Edge(&g, 0, 1);
  Edge(&g, 0, 2);
  Edge(&g, 1, 2);
  Edge(&g, 2, 0);
  Edge(&g, 2, 0);
  Edge(&g, 3, 3);
  ExpectMatchesOracle(g);
}

TEST(PageRankFixpointTest, StarIntoDanglingHub) {
  for (size_t leaves : {1u, 5u, 2000u}) {
    LabeledGraph g = Nodes(leaves + 1);
    for (NodeId leaf = 1; leaf <= leaves; ++leaf) Edge(&g, leaf, 0);
    ExpectMatchesOracle(g);
  }
}

TEST(PageRankFixpointTest, CyclicErdosRenyiWithSelfLoops) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const size_t n = 20 + 40 * (seed % 4);
    LabeledGraph g = ErdosRenyi(n, 3 * n, {"n"}, {"e"}, &rng);
    for (NodeId v = 0; v < n; v += 5) Edge(&g, v, v);
    for (NodeId v = 0; v < n; ++v) Edge(&g, v, (v + 1) % n);  // a cycle
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(g);
  }
}

TEST(PageRankFixpointTest, SparseErdosRenyiWithDanglingNodes) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(100 + seed);
    const LabeledGraph g = ErdosRenyi(200, 150, {"n"}, {"a", "b"}, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(g);
  }
}

TEST(PageRankFixpointTest, BarabasiAlbert) {
  Rng rng(15);
  ExpectMatchesOracle(BarabasiAlbert(3000, 4, {"n"}, {"e"}, &rng));
}

TEST(PageRankFixpointTest, DblpSynth) {
  DblpGraphOptions opts;
  opts.num_papers = 400;
  opts.num_authors = 120;
  opts.num_venues = 8;
  Rng rng(3);
  ExpectMatchesOracle(BuildDblpGraph(opts, &rng));
}

}  // namespace
}  // namespace kgq
