#include "analytics/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/figure2.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "oracles/betweenness_brute.h"
#include "rpq/parser.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

TEST(BetweennessTest, PathGraphMiddleDominates) {
  Multigraph g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1).value();
  std::vector<double> bc =
      BetweennessCentrality(g, EdgeDirection::kDirected);
  // Directed path a→b→c→d→e: interior node x on all pairs crossing it.
  EXPECT_EQ(bc[0], 0.0);
  EXPECT_EQ(bc[4], 0.0);
  EXPECT_EQ(bc[2], 4.0);  // Pairs (0..1)×(3..4) = 4, each σ=1.
  EXPECT_EQ(bc[1], 3.0);  // (0,2),(0,3),(0,4).
}

TEST(BetweennessTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    LabeledGraph g = ErdosRenyi(12, 28, {"n"}, {"e"}, &rng);
    for (EdgeDirection dir :
         {EdgeDirection::kDirected, EdgeDirection::kUndirected}) {
      std::vector<double> fast = BetweennessCentrality(g.topology(), dir);
      std::vector<double> brute = BruteForceBc(g.topology(), dir);
      ASSERT_EQ(fast.size(), brute.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], brute[i], 1e-6) << "trial " << trial;
      }
    }
  }
}

TEST(BetweennessTest, PivotSamplingConverges) {
  Rng gen(12);
  LabeledGraph g = BarabasiAlbert(150, 3, {"n"}, {"e"}, &gen);
  std::vector<double> exact =
      BetweennessCentrality(g.topology(), EdgeDirection::kUndirected);
  // All pivots = exact (up to float noise).
  Rng full_rng(1);
  std::vector<double> full = ApproxBetweennessCentrality(
      g.topology(), EdgeDirection::kUndirected, g.num_nodes(), &full_rng);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(full[i], exact[i], 1e-6);
  }
  // A quarter of the pivots still ranks the top node correctly and has
  // bounded aggregate error.
  Rng quarter_rng(2);
  std::vector<double> approx = ApproxBetweennessCentrality(
      g.topology(), EdgeDirection::kUndirected, 40, &quarter_rng);
  size_t top_exact =
      std::max_element(exact.begin(), exact.end()) - exact.begin();
  size_t top_approx =
      std::max_element(approx.begin(), approx.end()) - approx.begin();
  EXPECT_EQ(top_exact, top_approx);
  double num = 0, den = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    num += std::fabs(approx[i] - exact[i]);
    den += exact[i];
  }
  EXPECT_LT(num / den, 0.35);
}

TEST(BetweennessTest, PivotSamplingEdgeCases) {
  Multigraph empty;
  Rng rng(1);
  EXPECT_TRUE(ApproxBetweennessCentrality(empty, EdgeDirection::kDirected, 5,
                                          &rng)
                  .empty());
  Multigraph g(3);
  g.AddEdge(0, 1).value();
  auto zero = ApproxBetweennessCentrality(g, EdgeDirection::kDirected, 0,
                                          &rng);
  for (double v : zero) EXPECT_EQ(v, 0.0);
}

TEST(RegexBetweennessTest, MatchesBruteForceOnFigure2) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  for (const std::string q :
       {"?person/rides/?bus/rides^-/?person",
        "(rides+rides^-+contact+lives)*",
        "(contact+contact^-)*"}) {
    RegexPtr regex = Parse(q);
    BcrOptions opts;
    opts.max_path_length = 6;
    Result<std::vector<double>> got = RegexBetweenness(view, *regex, opts);
    ASSERT_TRUE(got.ok()) << q;
    std::vector<double> want = BruteForceBcr(view, *regex, 6);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i], want[i], 1e-9) << q << " node " << i;
    }
  }
}

TEST(RegexBetweennessTest, BusIsCentralForTransportQuery) {
  // The paper's Section 4.2 example: with r = ?person/rides/?bus/
  // rides^-/?person, the centrality of the bus counts only its role as a
  // transport service; the company and ownership edges contribute 0.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<std::vector<double>> bc = RegexBetweenness(
      view, *Parse("?person/rides/?bus/rides^-/?person"), {});
  ASSERT_TRUE(bc.ok());
  EXPECT_GT((*bc)[fig2::kBus], 0.0);
  // Juan, Rosa: endpoints only. Company: never on a conforming path.
  EXPECT_EQ((*bc)[fig2::kCompany], 0.0);
  EXPECT_EQ((*bc)[fig2::kJuan], 0.0);
  // σ over person pairs (Juan, Ana... wait: Ana does not ride) —
  // conforming pairs are (Juan,Rosa),(Rosa,Juan), each with a single
  // shortest path through the bus: bc = 2.
  EXPECT_EQ((*bc)[fig2::kBus], 2.0);
}

TEST(RegexBetweennessTest, LabelsChangeTheRanking) {
  // Classical bc on the undirected topology ranks by pure connectivity;
  // the regex restriction can demote a topologically central node.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<double> classic =
      BetweennessCentrality(g.topology(), EdgeDirection::kUndirected);
  Result<std::vector<double>> transport = RegexBetweenness(
      view, *Parse("?person/rides/?bus/rides^-/?person"), {});
  ASSERT_TRUE(transport.ok());
  // Classically Ana has centrality (she bridges Rosa to Juan), but for
  // the transport query she is worthless.
  EXPECT_GT(classic[fig2::kAna], 0.0);
  EXPECT_EQ((*transport)[fig2::kAna], 0.0);
}

TEST(RegexBetweennessTest, ApproxTracksExact) {
  Rng rng(67);
  LabeledGraph g = ErdosRenyi(14, 40, {"p", "b"}, {"r", "c"}, &rng);
  LabeledGraphView view(g);
  RegexPtr regex = Parse("(r+c/c^-)*");
  BcrOptions opts;
  opts.max_path_length = 6;
  Result<std::vector<double>> exact = RegexBetweenness(view, *regex, opts);
  ASSERT_TRUE(exact.ok());
  Rng approx_rng(99);
  Result<std::vector<double>> approx =
      RegexBetweennessApprox(view, *regex, opts, &approx_rng);
  ASSERT_TRUE(approx.ok());

  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < exact->size(); ++i) {
    num += std::fabs((*approx)[i] - (*exact)[i]);
    den += (*exact)[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(num / den, 0.35);  // Aggregate relative L1 error.

  // Spearman-style sanity: the top exact node should be near the top of
  // the approximate ranking.
  size_t exact_top = std::max_element(exact->begin(), exact->end()) -
                     exact->begin();
  std::vector<size_t> order(approx->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*approx)[a] > (*approx)[b];
  });
  size_t rank = std::find(order.begin(), order.end(), exact_top) -
                order.begin();
  EXPECT_LT(rank, 3u);
}

}  // namespace
}  // namespace kgq
