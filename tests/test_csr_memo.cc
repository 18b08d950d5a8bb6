// Memo semantics of the graph models' CsrSnapshot — the adjacency every
// kernel reads when the caller passes none. For each model (topology,
// labeled, property, vector, RDF view):
//   * Csr() equals a fresh FromGraph / FromTopology / FromLabeledEdges
//     build, operator== (every array, label interning order included);
//   * the memo's labels are the view's label atoms: for every edge and
//     every spelling, absent ones included, EdgeHasLabel(e,
//     ResolveLabel(l)) iff Csr().EdgeLabel(e) == Csr().FindLabel(l);
//   * after AddNode / AddEdge the memo is rebuilt and equals a fresh
//     build, and a copy taken before the edit keeps the old snapshot;
//   * four threads racing the first Csr() get one object, built once.
// The name matches CI's TSan regex (`csr`), which races the memo cell.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/registry.h"
#include "pathalg/pairs.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "rdf/rdf_view.h"
#include "rdf/triple_store.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Edge labels the label-agreement check probes: every label the test
/// graphs carry plus spellings no edge carries.
const std::vector<std::string> kSpellings = {"a", "b", "c", "p", "q",
                                             "absent", ""};

/// The label-agreement property of GraphView::Csr().
void ExpectLabelsAgree(const GraphView& view,
                       const std::vector<std::string>& spellings = kSpellings) {
  const CsrSnapshot& csr = view.Csr();
  for (const std::string& l : spellings) {
    const std::optional<ConstId> id = view.ResolveLabel(l);
    const std::optional<LabelId> lab = csr.FindLabel(l);
    for (EdgeId e = 0; e < view.num_edges(); ++e) {
      const bool has = id.has_value() && view.EdgeHasLabel(e, *id);
      const bool csr_has = lab.has_value() && csr.EdgeLabel(e) == *lab;
      EXPECT_EQ(has, csr_has) << "edge " << e << " label '" << l << "'";
    }
  }
}

uint64_t MemoBuilds() {
  return obs::Registry::Get().GetCounter("graph.csr.memo_builds")->Value();
}

/// Four threads race the first Csr() call of `g`: all see one object,
/// and (with obs compiled in) exactly one build ran.
template <typename Graph>
void ExpectOneBuildUnderRace(const Graph& g) {
  const uint64_t before = MemoBuilds();
  std::vector<const CsrSnapshot*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&g, &seen, i] { seen[i] = &g.Csr(); });
  }
  for (std::thread& t : threads) t.join();
  for (const CsrSnapshot* s : seen) EXPECT_EQ(s, seen[0]);
  if (obs::kCompiledIn && obs::Registry::Enabled()) {
    EXPECT_EQ(MemoBuilds(), before + 1);
  }
  EXPECT_EQ(&g.Csr(), seen[0]) << "later calls return the memo";
}

LabeledGraph RandomLabeled(uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyi(10, 30, {"p", "q"}, {"a", "b"}, &rng);
}

TEST(CsrMemo, TopologyMemoMatchesFreshBuild) {
  LabeledGraph lg = RandomLabeled(1);
  Multigraph g = lg.topology();
  ExpectOneBuildUnderRace(g);
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromTopology(g));

  const Multigraph before = g;
  const CsrSnapshot* old = &before.Csr();
  EXPECT_EQ(old, &g.Csr()) << "a copy shares the memo";
  g.AddEdge(0, 9).value();
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromTopology(g));
  EXPECT_EQ(g.Csr().num_edges(), before.num_edges() + 1);
  EXPECT_EQ(&before.Csr(), old);
  EXPECT_EQ(before.Csr(), CsrSnapshot::FromTopology(before));
  g.AddNode();
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromTopology(g));
  g.AddNodes(3);
  EXPECT_EQ(g.Csr().num_nodes(), before.num_nodes() + 4);
}

TEST(CsrMemo, LabeledMemoMatchesFreshBuildAndViewLabels) {
  LabeledGraph g = RandomLabeled(2);
  ExpectOneBuildUnderRace(g);
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ExpectLabelsAgree(LabeledGraphView(g));

  const LabeledGraph before = g;
  const CsrSnapshot* old = &before.Csr();
  // A new label and a new node: the memo is rebuilt with both.
  g.AddEdge(3, 4, "c").value();
  const NodeId n = g.AddNode("p");
  g.AddEdge(n, n, "a").value();
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ASSERT_TRUE(g.Csr().FindLabel("c").has_value());
  ExpectLabelsAgree(LabeledGraphView(g));
  // The copy taken before the edits never sees them.
  EXPECT_EQ(&before.Csr(), old);
  EXPECT_EQ(before.Csr(), CsrSnapshot::FromGraph(before));
  EXPECT_FALSE(before.Csr().FindLabel("c").has_value());
}

TEST(CsrMemo, PropertyGraphDelegatesToItsLabeledGraph) {
  PropertyGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode(i % 2 == 0 ? "p" : "q");
  for (int i = 0; i < 6; ++i) {
    EdgeId e = g.AddEdge(i, (i * 5 + 1) % 6, i % 3 == 0 ? "a" : "b").value();
    g.SetEdgeProperty(e, "since", std::to_string(2000 + i));
  }
  ExpectOneBuildUnderRace(g);
  EXPECT_EQ(&g.Csr(), &g.labeled().Csr());
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ExpectLabelsAgree(PropertyGraphView(g));

  const PropertyGraph before = g;
  g.SetNodeProperty(0, "name", "zero");  // Not adjacency: memo stays.
  EXPECT_EQ(&g.Csr(), &before.Csr());
  g.AddEdge(5, 0, "c").value();
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ExpectLabelsAgree(PropertyGraphView(g));
  EXPECT_EQ(before.Csr(), CsrSnapshot::FromGraph(before));
}

TEST(CsrMemo, VectorGraphMemoReadsFeatureRowZero) {
  VectorGraph g(2);
  for (int i = 0; i < 6; ++i) {
    g.AddNodeFromStrings({i % 2 == 0 ? "p" : "q", "x"}).value();
  }
  for (int i = 0; i < 8; ++i) {
    g.AddEdgeFromStrings(i % 6, (i + 2) % 6, {i % 2 == 0 ? "a" : "b", ""})
        .value();
  }
  ExpectOneBuildUnderRace(g);
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ExpectLabelsAgree(VectorGraphView(g));

  const VectorGraph before = g;
  g.AddEdgeFromStrings(1, 1, {"c", "y"}).value();
  g.AddNodeFromStrings({"p", ""}).value();
  EXPECT_EQ(g.Csr(), CsrSnapshot::FromGraph(g));
  ExpectLabelsAgree(VectorGraphView(g));
  EXPECT_EQ(before.Csr(), CsrSnapshot::FromGraph(before));
  EXPECT_EQ(before.Csr().num_edges(), 8u);
}

// The documented exception: an edge whose feature row 0 is ⊥ is spelled
// "⊥" in the snapshot, but no label atom matches it. The kernels still
// agree with the view — the NFA keeps the atom's match bitset (an empty
// one: the atom is dead) and EdgeScan asks the view first.
TEST(CsrMemo, VectorBottomLabelMatchesNothing) {
  VectorGraph g(1);
  for (int i = 0; i < 3; ++i) g.AddNodeFromStrings({"p"}).value();
  g.AddEdgeFromStrings(0, 1, {""}).value();  // ⊥
  g.AddEdgeFromStrings(1, 2, {"a"}).value();
  VectorGraphView view(g);
  const std::string bottom = "\xE2\x8A\xA5";
  ASSERT_TRUE(g.Csr().FindLabel(bottom).has_value());
  EXPECT_FALSE(view.EdgeLabelIs(0, bottom));

  Result<PathNfa> nfa = PathNfa::Compile(view, *Regex::EdgeLabel(bottom));
  ASSERT_TRUE(nfa.ok()) << nfa.status();
  for (const Bitset& row : AllPairs(*nfa)) EXPECT_TRUE(row.None());

  ConjunctiveQuery cq;
  cq.atoms.emplace_back("x", "y", Regex::EdgeLabel(bottom));
  cq.projection = {"x", "y"};
  GraphStats stats = GraphStats::From(&view, nullptr);
  Result<LogicalOpPtr> plan = PlanQuery(cq, stats, PlannerOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<RowSet> rows = ExecutePlan(view, **plan);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->rows.empty());
}

TEST(CsrMemo, RdfViewMemoMatchesFreshBuild) {
  TripleStore store;
  store.Insert("alice", "knows", "bob");
  store.Insert("bob", "knows", "carol");
  store.Insert("alice", "worksAt", "acme");
  store.Insert("carol", "rdf:type", "Person");
  store.Insert("bob", "bob", "bob");  // Predicate spelled like a node.
  const RdfGraphView view(store);
  ExpectOneBuildUnderRace(view);
  const std::vector<std::string> preds = {"knows", "worksAt", "rdf:type",
                                          "bob"};
  EXPECT_EQ(view.Csr(), CsrSnapshot::FromLabeledEdges(
                            view.topology(), [&](EdgeId e) {
                              for (const std::string& l : preds) {
                                if (view.EdgeLabelIs(e, l)) return l;
                              }
                              return std::string("?");
                            }));
  ExpectLabelsAgree(view, {"knows", "worksAt", "rdf:type", "bob", "alice",
                           "Person", "absent"});

  // The view is a snapshot of the store: a later insert reaches a new
  // view's memo, never the old one's.
  const CsrSnapshot* old = &view.Csr();
  store.Insert("carol", "knows", "alice");
  const RdfGraphView fresh(store);
  EXPECT_EQ(fresh.Csr().num_edges(), view.Csr().num_edges() + 1);
  EXPECT_EQ(&view.Csr(), old);
  const RdfGraphView copy = view;
  EXPECT_EQ(&copy.Csr(), old) << "a copy shares the memo";
}

// A graph copied before its first Csr() call: each side builds its own
// memo on demand and an edit to one never shows in the other.
TEST(CsrMemo, CopiesStayIndependentAcrossEdits) {
  LabeledGraph a = RandomLabeled(3);
  LabeledGraph b = a;
  a.AddEdge(0, 1, "c").value();
  EXPECT_EQ(b.Csr(), CsrSnapshot::FromGraph(b));
  EXPECT_EQ(a.Csr(), CsrSnapshot::FromGraph(a));
  EXPECT_EQ(a.Csr().num_edges(), b.Csr().num_edges() + 1);
  b.AddNode("q");
  EXPECT_EQ(b.Csr().num_nodes(), a.Csr().num_nodes() + 1);
  EXPECT_EQ(a.Csr(), CsrSnapshot::FromGraph(a));
}

}  // namespace
}  // namespace kgq
