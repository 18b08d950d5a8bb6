// Unit tests for the shared query-planning layer (src/plan): cardinality
// statistics, optimizer rewrite rules (filter pushdown, EdgeScan fast
// path, join reordering), the EXPLAIN printer, the physical executor on
// hand-checkable graphs, and the three front-end compilers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datasets/dblp_synth.h"
#include "datasets/figure2.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "oracles/crpq_reference.h"
#include "oracles/match_reference.h"
#include "plan/exec.h"
#include "plan/ir.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/rdf_view.h"
#include "rpq/crpq.h"
#include "rpq/parser.h"
#include "util/rng.h"

namespace kgq {
namespace {

PlannerOptions NaiveOptions() {
  PlannerOptions o;
  o.push_filters = false;
  o.reorder_joins = false;
  o.edge_scan_fastpath = false;
  return o;
}

const LogicalOp* FindKind(const LogicalOp& op, LogicalKind kind) {
  if (op.kind == kind) return &op;
  for (const LogicalOpPtr& c : op.children) {
    if (const LogicalOp* hit = FindKind(*c, kind)) return hit;
  }
  return nullptr;
}

size_t CountKind(const LogicalOp& op, LogicalKind kind) {
  size_t n = op.kind == kind ? 1 : 0;
  for (const LogicalOpPtr& c : op.children) n += CountKind(*c, kind);
  return n;
}

// ---------------------------------------------------------------------
// GraphStats

TEST(GraphStats, ReadsLabelFrequenciesFromTheSnapshot) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  EXPECT_DOUBLE_EQ(stats.num_nodes(), static_cast<double>(g.num_nodes()));
  EXPECT_DOUBLE_EQ(stats.num_edges(), static_cast<double>(g.num_edges()));
  EXPECT_DOUBLE_EQ(stats.LabelFrequency("rides"),
                   static_cast<double>(snap.LabelFrequency("rides")));
  EXPECT_DOUBLE_EQ(stats.LabelFrequency("no_such_label"), 0.0);

  // Without a snapshot, every label falls back to the edge count.
  GraphStats blind = GraphStats::From(&view, nullptr);
  EXPECT_DOUBLE_EQ(blind.LabelFrequency("rides"),
                   static_cast<double>(g.num_edges()));
}

TEST(GraphStats, NodeTestSelectivityIsExactWithAView) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, nullptr);

  // Figure 2 has one bus among six nodes.
  TestPtr bus = *ParseTest("bus");
  EXPECT_DOUBLE_EQ(stats.NodeTestSelectivity(*bus), 1.0 / 6.0);
  TestPtr truth = *ParseTest("true");
  EXPECT_DOUBLE_EQ(stats.NodeTestSelectivity(*truth), 1.0);
}

TEST(GraphStats, PathPairEstimateRanksLabelsByFrequency) {
  Rng rng(7);
  LabeledGraph g = ErdosRenyi(100, 400, {"p"}, {"hot", "hot", "rare"}, &rng);
  // Force the skew: relabel is not possible, so just count what we got.
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  double hot = stats.EstimatePathPairs(**ParseRegex("hot"));
  double rare = stats.EstimatePathPairs(**ParseRegex("rare"));
  EXPECT_DOUBLE_EQ(hot, stats.LabelFrequency("hot"));
  EXPECT_DOUBLE_EQ(rare, stats.LabelFrequency("rare"));
  EXPECT_GT(hot, rare);  // Two of three alphabet slots say "hot".

  // Union adds; star is at least its base; everything stays within n².
  double both = stats.EstimatePathPairs(**ParseRegex("(hot + rare)"));
  EXPECT_DOUBLE_EQ(both, hot + rare);
  double star = stats.EstimatePathPairs(**ParseRegex("hot*"));
  EXPECT_GE(star, hot);
  EXPECT_LE(star, stats.num_nodes() * stats.num_nodes());
}

// ---------------------------------------------------------------------
// Optimizer rules

TEST(Optimizer, SingleLabelAtomBecomesAnEdgeScan) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.projection = {"x", "b"};

  LogicalOpPtr plan = *PlanQuery(q, stats);
  EXPECT_NE(FindKind(*plan, LogicalKind::kEdgeScan), nullptr);
  EXPECT_EQ(FindKind(*plan, LogicalKind::kPathAtom), nullptr);

  // The ℓ⁻ form scans backward.
  ConjunctiveQuery qb;
  qb.atoms.push_back({"x", "b", *ParseRegex("rides^-")});
  qb.projection = {"x", "b"};
  LogicalOpPtr planb = *PlanQuery(qb, stats);
  const LogicalOp* scan = FindKind(*planb, LogicalKind::kEdgeScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->backward);
  EXPECT_EQ(scan->label, "rides");

  // With the rule off it stays a PathAtom.
  PlannerOptions no_fastpath;
  no_fastpath.edge_scan_fastpath = false;
  LogicalOpPtr plain = *PlanQuery(q, stats, no_fastpath);
  EXPECT_EQ(FindKind(*plain, LogicalKind::kEdgeScan), nullptr);
  EXPECT_NE(FindKind(*plain, LogicalKind::kPathAtom), nullptr);
}

TEST(Optimizer, PushdownFoldsEndpointTestsIntoThePathAtom) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  GraphStats stats = GraphStats::From(&view, nullptr);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "y", *ParseRegex("(rides/rides^-)")});
  q.node_tests["x"] = *ParseTest("person");
  q.node_tests["y"] = *ParseTest("infected");
  q.projection = {"x"};

  // Optimized: tests live inside the PathAtom's regex, no Filters.
  LogicalOpPtr opt = *PlanQuery(q, stats);
  EXPECT_EQ(CountKind(*opt, LogicalKind::kFilter), 0u);
  const LogicalOp* atom = FindKind(*opt, LogicalKind::kPathAtom);
  ASSERT_NE(atom, nullptr);
  EXPECT_NE(atom->path->ToString().find("person"), std::string::npos);
  EXPECT_NE(atom->path->ToString().find("infected"), std::string::npos);

  // Naive: the atom keeps its original regex, Filters sit above.
  LogicalOpPtr naive = *PlanQuery(q, stats, NaiveOptions());
  EXPECT_EQ(CountKind(*naive, LogicalKind::kFilter), 2u);
  const LogicalOp* natom = FindKind(*naive, LogicalKind::kPathAtom);
  ASSERT_NE(natom, nullptr);
  EXPECT_EQ(natom->path->ToString().find("person"), std::string::npos);
}

TEST(Optimizer, GreedyReorderSeedsFromTheCheapestLeaf) {
  // Two hot atoms first, one rare atom last — textual order would build
  // the huge intermediate, the greedy order must start from "rare".
  Rng rng(11);
  LabeledGraph g =
      ErdosRenyi(60, 600, {"p"}, {"hot", "hot", "hot", "rare"}, &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"a", "b", *ParseRegex("hot")});
  q.atoms.push_back({"b", "c", *ParseRegex("hot")});
  q.atoms.push_back({"c", "d", *ParseRegex("rare")});
  q.projection = {"a", "d"};

  LogicalOpPtr plan = *PlanQuery(q, stats);
  // Walk to the deepest left leaf: the join tree's first input.
  const LogicalOp* cur = plan.get();
  while (!cur->children.empty()) cur = cur->children[0].get();
  EXPECT_EQ(cur->label, "rare") << ExplainPlan(*plan);

  // Naive keeps textual order.
  LogicalOpPtr naive = *PlanQuery(q, stats, NaiveOptions());
  cur = naive.get();
  while (!cur->children.empty()) cur = cur->children[0].get();
  ASSERT_EQ(cur->kind, LogicalKind::kPathAtom);
  EXPECT_EQ(cur->src_var, "a");
}

TEST(Optimizer, RejectsMalformedQueries) {
  GraphStats stats;
  ConjunctiveQuery empty_projection;
  empty_projection.atoms.push_back({"x", "y", *ParseRegex("a")});
  EXPECT_FALSE(PlanQuery(empty_projection, stats).ok());

  ConjunctiveQuery unknown_var;
  unknown_var.atoms.push_back({"x", "y", *ParseRegex("a")});
  unknown_var.projection = {"z"};
  EXPECT_FALSE(PlanQuery(unknown_var, stats).ok());

  ConjunctiveQuery nothing;
  nothing.projection = {"x"};
  EXPECT_FALSE(PlanQuery(nothing, stats).ok());
}

TEST(Optimizer, ExplainRendersTheTreeWithEstimates) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.atoms.push_back({"y", "b", *ParseRegex("rides")});
  q.node_tests["y"] = *ParseTest("infected");
  q.projection = {"x"};
  q.limit = 5;

  LogicalOpPtr plan = *PlanQuery(q, stats);
  std::string text = ExplainPlan(*plan);
  EXPECT_NE(text.find("Project [x] limit=5"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin [b]"), std::string::npos) << text;
  EXPECT_NE(text.find("EdgeScan (x)-[rides]->(b)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Executor

// q(x) :- (x) -[rides]-> (b: bus): everyone who rides the bus.
TEST(Executor, AnswersFigure2RidersQuery) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus)");
  std::vector<std::vector<NodeId>> expected = {
      {fig2::kJuan}, {fig2::kPedro}, {fig2::kRosa}};

  RowSet rows = *EvalCrpq(view, q);
  ASSERT_EQ(rows.schema, std::vector<std::string>{"x"});
  EXPECT_EQ(rows.rows, expected);
  RowSet ref = *EvalCrpqReference(view, q);
  EXPECT_EQ(ref.rows, expected);
}

// The contact-tracing join of the paper: who shared a bus with an
// infected person.
TEST(Executor, AnswersTheContactTracingJoin) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq(
      "q(x) :- (x: person) -[ rides ]-> (b: bus), "
      "(y: infected) -[ rides ]-> (b)");
  RowSet rows = *EvalCrpq(view, q);
  // Juan and Rosa ride the bus Pedro (infected) rides. Pedro is labeled
  // infected, not person, so he is excluded.
  std::vector<std::vector<NodeId>> expected = {{fig2::kJuan}, {fig2::kRosa}};
  EXPECT_EQ(rows.rows, expected) << ExplainPlan(
      **PlanOverView(view, *CompileCrpq(q)));
  EXPECT_EQ((*EvalCrpqReference(view, q)).rows, expected);
}

TEST(Executor, DiagonalAtomSelectsSelfLoopsOnly) {
  LabeledGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode("n");
  (void)g.AddEdge(0, 1, "a");
  (void)g.AddEdge(1, 1, "a");  // Self-loop.
  (void)g.AddEdge(2, 0, "a");
  LabeledGraphView view(g);

  Crpq q = *ParseCrpq("q(x) :- (x) -[ a ]-> (x)");
  std::vector<std::vector<NodeId>> expected = {{1}};
  EXPECT_EQ((*EvalCrpq(view, q)).rows, expected);
  EXPECT_EQ((*EvalCrpqReference(view, q)).rows, expected);
}

TEST(Executor, TestOnlyVariablesCrossJoinViaNodeScan) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);

  // (w: bus) never touches a path atom: pure NodeScan cross product.
  Crpq q = *ParseCrpq("q(x, w) :- (x: infected) -[ rides ]-> (b), (w: bus)");
  RowSet rows = *EvalCrpq(view, q);
  std::vector<std::vector<NodeId>> expected = {{fig2::kPedro, fig2::kBus}};
  EXPECT_EQ(rows.rows, expected);
  EXPECT_EQ((*EvalCrpqReference(view, q)).rows, expected);
}

TEST(Executor, BoundVariablesPinLeavesAndAbsentConstantsYieldEmpty) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  GraphStats stats = GraphStats::From(&view, &snap);

  ConjunctiveQuery q;
  q.atoms.push_back({"x", "b", *ParseRegex("rides")});
  q.bound["b"] = fig2::kBus;
  q.projection = {"x"};
  ExecOptions eopts;
  eopts.snapshot = &snap;
  RowSet rows = *ExecutePlan(view, **PlanQuery(q, stats), eopts);
  std::vector<std::vector<NodeId>> expected = {
      {fig2::kJuan}, {fig2::kPedro}, {fig2::kRosa}};
  EXPECT_EQ(rows.rows, expected);

  // A constant that does not exist in the graph empties the query —
  // under every planner configuration.
  q.bound["b"] = kNoNode;
  EXPECT_TRUE((*ExecutePlan(view, **PlanQuery(q, stats), eopts)).rows.empty());
  EXPECT_TRUE(
      (*ExecutePlan(view, **PlanQuery(q, stats, NaiveOptions()), eopts))
          .rows.empty());
}

TEST(Executor, LimitTruncatesAfterSortAndDedup) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus) LIMIT 2");
  RowSet rows = *EvalCrpq(view, q);
  std::vector<std::vector<NodeId>> expected = {{fig2::kJuan}, {fig2::kPedro}};
  EXPECT_EQ(rows.rows, expected);
  EXPECT_EQ((*EvalCrpqReference(view, q)).rows, expected);
}

TEST(Executor, EmitsObsCountersAndSpans) {
  obs::Registry::SetEnabled(true);
  obs::Registry::Get().Reset();

  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Crpq q = *ParseCrpq("q(x) :- (x) -[ rides ]-> (b: bus)");
  (void)*EvalCrpq(view, q);

  // A -DKGQ_OBS=OFF build compiles the macro call sites to nothing;
  // the execution itself must still work (checked above by EvalCrpq).
  if (!obs::kCompiledIn) return;
  const obs::Registry& reg = obs::Registry::Get();
  EXPECT_GT(reg.CounterValue("plan.rows.project"), 0u);
  EXPECT_GT(reg.SpanCount("plan.optimize"), 0u);
  EXPECT_GT(reg.SpanCount("plan.execute"), 0u);
}

// ---------------------------------------------------------------------
// Front-end compilers

TEST(FrontEnds, CrpqParseToStringRoundTrips) {
  const char* text =
      "q(x, z) :- (x: person) -[ writes ]-> (y), (y) -[ cites* ]-> (z), "
      "(w: venue) LIMIT 5";
  Crpq q = *ParseCrpq(text);
  EXPECT_EQ(q.head, (std::vector<std::string>{"x", "z"}));
  EXPECT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.limit, 5u);
  EXPECT_EQ(q.node_tests.size(), 2u);  // x: person, w: venue.

  // Chains desugar: one conjunct with two hops = two atoms.
  Crpq chain = *ParseCrpq("p(a) :- (a) -[ r ]-> (b) -[ s ]-> (c)");
  EXPECT_EQ(chain.atoms.size(), 2u);
  EXPECT_EQ(chain.atoms[0].dst, chain.atoms[1].src);

  // ToString re-parses to the same structure.
  Crpq again = *ParseCrpq(q.ToString());
  EXPECT_EQ(again.head, q.head);
  EXPECT_EQ(again.atoms.size(), q.atoms.size());
  EXPECT_EQ(again.limit, q.limit);

  // Head variables must occur in the body.
  EXPECT_FALSE(ParseCrpq("q(nope) :- (x) -[ r ]-> (y)").ok());
}

TEST(FrontEnds, CompileMatchMapsChainsOntoAtoms) {
  MatchQuery mq = *ParseMatchQuery(
      "MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> (y) "
      "RETURN x, y LIMIT 3");
  ConjunctiveQuery cq = *CompileMatch(mq);
  ASSERT_EQ(cq.atoms.size(), 2u);
  EXPECT_EQ(cq.atoms[0].src, "x");
  EXPECT_EQ(cq.atoms[0].dst, "b");
  EXPECT_EQ(cq.atoms[1].src, "b");
  EXPECT_EQ(cq.atoms[1].dst, "y");
  EXPECT_EQ(cq.node_tests.size(), 2u);
  EXPECT_EQ(cq.projection, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(cq.limit, 3u);
}

TEST(FrontEnds, PlannedMatchEqualsReferenceOnFigure2) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  const char* text =
      "MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> "
      "(y: infected) RETURN x, y";
  MatchQuery mq = *ParseMatchQuery(text);
  QueryResult ref = *ExecuteMatch(view, mq);
  QueryResult planned = *ExecuteMatchPlanned(view, mq);
  EXPECT_EQ(planned.columns, ref.columns);
  EXPECT_EQ(planned.rows, ref.rows);
  // RunMatch now routes through the planner.
  QueryResult run = *RunMatch(view, text);
  EXPECT_EQ(run.rows, ref.rows);
}

TEST(FrontEnds, CompileBgpBindsConstantsAndRejectsVariablePredicates) {
  TripleStore store;
  store.Insert("juan", "rides", "bus1");
  store.Insert("pedro", "rides", "bus1");
  store.Insert("pedro", "type", "infected");
  RdfGraphView view(store);

  std::vector<TriplePattern> patterns = *ParseBgp("?x rides bus1");
  ConjunctiveQuery cq = *CompileBgp(patterns, view);
  ASSERT_EQ(cq.atoms.size(), 1u);
  EXPECT_EQ(cq.projection, (std::vector<std::string>{"x"}));
  ASSERT_EQ(cq.bound.size(), 1u);  // The constant object.
  EXPECT_EQ(cq.bound.begin()->second, view.NodeOf("bus1"));

  // Variable predicates are Unsupported (EvalBgpPlanned falls back).
  std::vector<TriplePattern> varp = *ParseBgp("?x ?p ?y");
  Result<ConjunctiveQuery> r = CompileBgp(varp, view);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  std::vector<Binding> fallback = *EvalBgpPlanned(store, varp);
  EXPECT_EQ(fallback, *EvalBgp(store, varp));
}

TEST(FrontEnds, PlannedBgpEqualsReferenceIncludingAskQueries) {
  TripleStore store;
  store.Insert("juan", "rides", "bus1");
  store.Insert("pedro", "rides", "bus1");
  store.Insert("rosa", "rides", "bus2");
  store.Insert("pedro", "type", "infected");

  // Join with a property path atom.
  std::vector<TriplePattern> patterns =
      *ParseBgp("?x (rides/rides^-) ?y . ?y type infected");
  EXPECT_EQ(*EvalBgpPlanned(store, patterns), *EvalBgp(store, patterns));

  // All-constant ("ask") patterns: one empty binding iff they hold.
  std::vector<TriplePattern> yes = *ParseBgp("juan rides bus1");
  EXPECT_EQ(*EvalBgpPlanned(store, yes), *EvalBgp(store, yes));
  EXPECT_EQ((*EvalBgpPlanned(store, yes)).size(), 1u);
  std::vector<TriplePattern> no = *ParseBgp("juan rides bus2");
  EXPECT_EQ(*EvalBgpPlanned(store, no), *EvalBgp(store, no));
  EXPECT_TRUE((*EvalBgpPlanned(store, no)).empty());
  // Constants the store has never seen.
  std::vector<TriplePattern> ghost = *ParseBgp("?x rides bus9");
  EXPECT_EQ(*EvalBgpPlanned(store, ghost), *EvalBgp(store, ghost));
}

TEST(FrontEnds, DblpGraphHasTheDocumentedShape) {
  DblpGraphOptions opts;
  opts.num_papers = 200;
  opts.num_authors = 50;
  opts.num_venues = 5;
  Rng rng(opts.seed);
  LabeledGraph g = BuildDblpGraph(opts, &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  // Every paper has exactly one venue edge.
  EXPECT_EQ(snap.LabelFrequency("in"), opts.num_papers);
  // writes ≥ papers (at least one author each); about = papers.
  EXPECT_GE(snap.LabelFrequency("writes"), opts.num_papers);
  EXPECT_EQ(snap.LabelFrequency("about"), opts.num_papers);
  // The keyword skew the planner exploits.
  Crpq q = *ParseCrpq(
      "q(p) :- (p: paper) -[ about ]-> (k: knowledge_graph)");
  Crpq rare = *ParseCrpq(
      "q(p) :- (p: paper) -[ about ]-> (k: property_graph)");
  EXPECT_GT((*EvalCrpq(view, q)).rows.size(),
            (*EvalCrpq(view, rare)).rows.size());
}

}  // namespace
}  // namespace kgq
