#include <gtest/gtest.h>

#include <set>

#include "datasets/figure2.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "oracles/reference_eval.h"
#include "pathalg/pairs.h"
#include "pathalg/simple_paths.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

// --------------------------------------------------------- pair semantics

TEST(PairSemanticsTest, Figure2Reachability) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  PathNfa nfa =
      *PathNfa::Compile(view, *Parse("?person/rides/?bus/rides^-/?infected"));
  Bitset from_juan = ReachableFrom(nfa, fig2::kJuan);
  EXPECT_TRUE(from_juan.Test(fig2::kPedro));
  EXPECT_EQ(from_juan.Count(), 1u);
  Bitset from_ana = ReachableFrom(nfa, fig2::kAna);
  EXPECT_TRUE(from_ana.None());
}

TEST(PairSemanticsTest, UnboundedStarSaturates) {
  // Pair semantics has no length bound: contact* reaches transitively.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("contact*"));
  Bitset from_juan = ReachableFrom(nfa, fig2::kJuan);
  EXPECT_TRUE(from_juan.Test(fig2::kJuan));  // Length 0.
  EXPECT_TRUE(from_juan.Test(fig2::kAna));   // 1 hop.
  EXPECT_TRUE(from_juan.Test(fig2::kRosa));  // 2 hops.
  EXPECT_FALSE(from_juan.Test(fig2::kBus));
}

TEST(PairSemanticsTest, AgreesWithReferenceOnRandomGraphs) {
  Rng rng(404);
  for (int trial = 0; trial < 6; ++trial) {
    LabeledGraph g = ErdosRenyi(10, 22, {"p", "q"}, {"a", "b"}, &rng);
    LabeledGraphView view(g);
    for (const char* q : {"a/b", "(a+b^-)*", "?p/a*/?q"}) {
      RegexPtr regex = Parse(q);
      PathNfa nfa = *PathNfa::Compile(view, *regex);
      // Reference: collect (start, end) pairs of all paths up to a length
      // that saturates a 10-node product (n·|Q| configurations).
      std::set<std::pair<NodeId, NodeId>> expected;
      for (const Path& p : EvalReference(view, *regex, 12)) {
        expected.insert({p.Start(), p.End()});
      }
      std::vector<Bitset> pairs = AllPairs(nfa);
      size_t got = 0;
      for (NodeId a = 0; a < g.num_nodes(); ++a) {
        pairs[a].ForEach([&](size_t b) {
          ++got;
          EXPECT_TRUE(expected.count({a, static_cast<NodeId>(b)}))
              << q << ": extra pair (" << a << "," << b << ")";
        });
      }
      EXPECT_EQ(got, expected.size()) << q;
      EXPECT_EQ(CountPairs(nfa), static_cast<double>(expected.size())) << q;
    }
  }
}

TEST(PairSemanticsTest, OptionsRespected) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("(rides+rides^-)*"));
  PathQueryOptions opts;
  opts.avoid = fig2::kBus;
  Bitset r = ReachableFrom(nfa, fig2::kJuan, opts);
  EXPECT_TRUE(r.Test(fig2::kJuan));
  EXPECT_FALSE(r.Test(fig2::kPedro));  // Only route was the bus.

  PathQueryOptions end_opts;
  end_opts.end = fig2::kPedro;
  Bitset e = ReachableFrom(nfa, fig2::kJuan, end_opts);
  EXPECT_EQ(e.Count(), 1u);
  EXPECT_TRUE(e.Test(fig2::kPedro));
}

// ------------------------------------------------------------ simple paths

TEST(SimplePathsTest, CycleWalksVsSimple) {
  // On a directed 4-cycle with query e*, walks are unbounded but simple
  // paths from a fixed start are exactly 4 (lengths 0..3).
  LabeledGraph g = Cycle(4, "n", "e");
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("e*"));
  PathQueryOptions opts;
  opts.start = 0;
  EXPECT_EQ(CountSimplePaths(nfa, 10, opts), 4.0);
  // All starts: 4 starts × 4 paths.
  EXPECT_EQ(CountSimplePaths(nfa, 10), 16.0);
}

TEST(SimplePathsTest, MatchesFilteredReference) {
  Rng rng(11);
  LabeledGraph g = ErdosRenyi(8, 18, {"p"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  for (const char* q : {"(a+b)*", "a/(b+a)*"}) {
    RegexPtr regex = Parse(q);
    PathNfa nfa = *PathNfa::Compile(view, *regex);
    std::set<Path> expected;
    for (const Path& p : EvalReference(view, *regex, 7)) {
      std::set<NodeId> distinct(p.nodes.begin(), p.nodes.end());
      if (distinct.size() == p.nodes.size()) expected.insert(p);
    }
    std::set<Path> got;
    EnumerateSimplePaths(nfa, 7, {},
                         [&](const Path& p) { got.insert(p); });
    EXPECT_EQ(got, expected) << q;
  }
}

TEST(SimplePathsTest, BudgetStopsEarly) {
  LabeledGraph g = LayeredDag(6, 5, "n", "e");
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("e*"));
  double produced = EnumerateSimplePaths(nfa, 6, {}, nullptr, 100.0);
  EXPECT_EQ(produced, 100.0);
}

TEST(SimplePathsTest, ThreeSemanticsOrdering) {
  // |pairs| ≤ |simple| ≤ |walks| on any instance (within a length cap
  // that covers the simple paths).
  Rng rng(21);
  LabeledGraph g = ErdosRenyi(7, 18, {"p"}, {"a"}, &rng);
  LabeledGraphView view(g);
  PathNfa nfa = *PathNfa::Compile(view, *Parse("a*"));
  double pairs = CountPairs(nfa);
  double simple = CountSimplePaths(nfa, 7);
  std::set<Path> walks;
  for (const Path& p : EvalReference(view, *Parse("a*"), 7)) {
    walks.insert(p);
  }
  EXPECT_LE(pairs, simple);
  EXPECT_LE(simple, static_cast<double>(walks.size()));
}

}  // namespace
}  // namespace kgq
