// Differential tests of bound-side evaluation in the plan executor:
// bind joins (source and target side, NFA and matrix engines), path
// atoms bound only at their target (run as reversed searches), and
// label-driven anchors. The executor chooses bound or whole-graph
// evaluation per leaf from exact counts, so the graphs here are built
// to make it choose both ways; the tests check from the profile that
// it did, and that every answer equals the reference evaluators
// (EvalCrpqReference, ExecuteMatch, the naive BGP evaluator) at 1 and
// 4 threads. Also the Regex reversal the target-side searches use.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/trace.h"
#include "pathalg/pairs.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "rpq/crpq.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Random regex over edge labels {a, b, c} and node labels {p, q}.
RegexPtr RandomPath(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    const char* labels[] = {"a", "b", "c"};
    const char* edge = labels[rng->Below(3)];
    switch (rng->Below(4)) {
      case 0:
        return Regex::EdgeLabel(edge);
      case 1:
        return Regex::EdgeLabelBwd(edge);
      case 2:
        return Regex::NodeLabel(rng->Bernoulli(0.5) ? "p" : "q");
      default:
        return Regex::EdgeFwd(
            TestExpr::Or(TestExpr::Label("a"), TestExpr::Label("b")));
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return Regex::Union(RandomPath(rng, depth - 1),
                          RandomPath(rng, depth - 1));
    case 1:
      return Regex::Concat(RandomPath(rng, depth - 1),
                           RandomPath(rng, depth - 1));
    default:
      return Regex::Star(RandomPath(rng, depth - 1));
  }
}

/// A random graph where the executor's cost rules go both ways: node
/// label p is rare and q common; `a` edges are sparse except from one
/// hub that points at a third of the nodes, so a key set holding the
/// hub can cost as much as the whole label; `c` edges are dense, so
/// keys drawn through `c` often cover every node.
LabeledGraph SkewedGraph(Rng* rng) {
  LabeledGraph g;
  const size_t n = 14 + rng->Below(14);
  for (size_t i = 0; i < n; ++i) g.AddNode(rng->Bernoulli(0.2) ? "p" : "q");
  auto add = [&](size_t count, const char* label) {
    for (size_t i = 0; i < count; ++i) {
      (void)g.AddEdge(static_cast<NodeId>(rng->Below(n)),
                      static_cast<NodeId>(rng->Below(n)), label);
    }
  };
  const NodeId hub = static_cast<NodeId>(rng->Below(n));
  for (size_t i = 0; i < n; i += 3) {
    (void)g.AddEdge(hub, static_cast<NodeId>(i), "a");
  }
  add(n / 3, "a");
  add(n, "b");
  add(3 * n, "c");
  return g;
}

/// How often each (leaf kind, engine) ran as the right input of a
/// HashJoin — the leaves offered join keys — and anywhere at all.
struct EngineTally {
  std::map<std::string, int> offered;
  std::map<std::string, int> leaves;

  void Add(const obs::ProfileNode& node) {
    if (node.kind == "HashJoin" && node.children.size() == 2) {
      const obs::ProfileNode* right = node.children[1].get();
      while (right->kind == "Filter" && !right->children.empty()) {
        right = right->children[0].get();
      }
      ++offered[right->kind + " " + right->engine];
    }
    if (node.children.empty()) ++leaves[node.kind + " " + node.engine];
    for (const auto& child : node.children) Add(*child);
  }
};

/// Runs `eval` under a profile trace and tallies the leaf engines.
template <typename Fn>
auto Profiled(EngineTally* tally, Fn&& eval) {
  obs::TraceContext ctx;
  auto result = [&] {
    obs::ScopedTrace scoped(&ctx);
    return eval();
  }();
  if (std::shared_ptr<const obs::ProfileNode> profile = ctx.TakeProfile()) {
    tally->Add(*profile);
  }
  return result;
}

/// Planned CRPQ evaluation equals the reference at 1 and 4 threads,
/// with the matrix engine forced on and off, with and without a
/// snapshot. Every run's profile goes into `tally`.
void ExpectCrpqMatchesReference(const LabeledGraph& g, const Crpq& q,
                                EngineTally* tally) {
  SCOPED_TRACE(q.ToString());
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);
  Result<RowSet> ref = EvalCrpqReference(view, q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool with_snapshot : {true, false}) {
      for (MatrixRpqMode matrix :
           {MatrixRpqMode::kOff, MatrixRpqMode::kAlways}) {
        CrpqOptions opts;
        opts.parallel.num_threads = threads;
        opts.snapshot = with_snapshot ? &snap : nullptr;
        opts.planner.matrix_rpq = matrix;
        Result<RowSet> got =
            Profiled(tally, [&] { return EvalCrpq(view, q, opts); });
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->schema, ref->schema);
        ASSERT_EQ(got->rows, ref->rows)
            << "threads=" << threads << " snapshot=" << with_snapshot
            << " matrix=" << (matrix == MatrixRpqMode::kAlways);
      }
    }
  }
}

// ---- Regex reversal ----

TEST(RegexReverseTest, SwapsDirectionsAndConcatOrder) {
  RegexPtr r = Regex::Concat(
      Regex::Concat(Regex::EdgeLabel("a"), Regex::EdgeLabelBwd("b")),
      Regex::NodeLabel("p"));
  EXPECT_EQ(Regex::Reverse(r)->ToString(), "?p/b/a^-");
  RegexPtr star = Regex::Star(
      Regex::Concat(Regex::EdgeLabel("a"), Regex::EdgeLabel("b")));
  EXPECT_EQ(Regex::Reverse(star)->ToString(), "(b^-/a^-)*");
  RegexPtr alt = Regex::Union(Regex::EdgeLabel("a"), Regex::NodeLabel("q"));
  EXPECT_EQ(Regex::Reverse(alt)->ToString(), "(a^- + ?q)");
}

class RegexReverseDifferential : public ::testing::TestWithParam<int> {};

// The pairs of the reversed regex are the transposed pairs of the
// original, and reversing twice gives the original pairs back.
TEST_P(RegexReverseDifferential, PairsAreTransposed) {
  Rng rng(500 + GetParam());
  LabeledGraph g = ErdosRenyi(8 + rng.Below(10), 15 + rng.Below(30),
                              {"p", "q"}, {"a", "b", "c"}, &rng);
  // A self-loop: traversed forward or backward it is the same step.
  (void)g.AddEdge(0, 0, "a");
  LabeledGraphView view(g);
  const size_t n = g.num_nodes();
  for (int round = 0; round < 8; ++round) {
    RegexPtr r = RandomPath(&rng, 3);
    RegexPtr rev = Regex::Reverse(r);
    SCOPED_TRACE(r->ToString() + "  reversed: " + rev->ToString());
    Result<PathNfa> fwd = PathNfa::Compile(view, *r);
    Result<PathNfa> bwd = PathNfa::Compile(view, *rev);
    Result<PathNfa> back = PathNfa::Compile(view, *Regex::Reverse(rev));
    ASSERT_TRUE(fwd.ok() && bwd.ok() && back.ok());
    std::vector<Bitset> pairs = AllPairs(*fwd);
    std::vector<Bitset> reversed = AllPairs(*bwd);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        ASSERT_EQ(pairs[a].Test(b), reversed[b].Test(a))
            << "a=" << a << " b=" << b;
      }
    }
    EXPECT_EQ(AllPairs(*back), pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexReverseDifferential,
                         ::testing::Range(0, 12));

// ---- Bind joins, target-bound leaves and label anchors ----

class BindDifferential : public ::testing::TestWithParam<int> {};

// Two-atom joins whose second atom shares only its source, only its
// target, or both endpoints with the first; single labels (EdgeScan)
// and random regexes (PathAtom) on either side, with and without
// endpoint tests.
TEST_P(BindDifferential, JoinsMatchReference) {
  Rng rng(8100 + GetParam());
  EngineTally tally;
  for (int graph_round = 0; graph_round < 3; ++graph_round) {
    LabeledGraph g = SkewedGraph(&rng);
    for (int round = 0; round < 6; ++round) {
      auto atom_path = [&]() -> RegexPtr {
        if (rng.Bernoulli(0.4)) {
          const char* labels[] = {"a", "b", "c"};
          return rng.Bernoulli(0.3)
                     ? Regex::EdgeLabelBwd(labels[rng.Below(3)])
                     : Regex::EdgeLabel(labels[rng.Below(3)]);
        }
        return RandomPath(&rng, 2);
      };
      Crpq q;
      q.atoms.push_back({"x", "y", atom_path()});
      switch (rng.Below(4)) {
        case 0:  // Source side.
          q.atoms.push_back({"y", "z", atom_path()});
          q.head = {"x", "z"};
          break;
        case 1:  // Target side.
          q.atoms.push_back({"z", "y", atom_path()});
          q.head = {"x", "z"};
          break;
        case 2:  // Both endpoints.
          q.atoms.push_back({"x", "y", atom_path()});
          q.head = {"x", "y"};
          break;
        default:  // Diagonal.
          q.atoms.push_back({"y", "y", atom_path()});
          q.head = {"x", "y"};
          break;
      }
      for (const char* v : {"x", "y", "z"}) {
        if (rng.Bernoulli(0.2)) {
          q.node_tests[v] = TestExpr::Label(rng.Bernoulli(0.5) ? "p" : "q");
        }
      }
      ExpectCrpqMatchesReference(g, q, &tally);
    }
  }
  if (!obs::kCompiledIn || GetParam() != 0) return;
  // Seed 0 pins that the cost rules went both ways for every engine.
  for (const char* engine :
       {"EdgeScan csr-bound", "EdgeScan csr", "PathAtom nfa-bound",
        "PathAtom nfa", "PathAtom matrix-bound", "PathAtom matrix"}) {
    EXPECT_GT(tally.offered[engine], 0) << engine;
  }
}

// Path atoms whose only constant is the target run as one reversed
// search; joined to a further pattern they also offer keys. Checked
// through the BGP front-end against the naive evaluator.
TEST_P(BindDifferential, TargetBoundLeavesMatchNaiveBgp) {
  Rng rng(8200 + GetParam());
  LabeledGraph g = SkewedGraph(&rng);
  TripleStore store = LabeledToRdf(g);
  EngineTally tally;
  for (int round = 0; round < 4; ++round) {
    const std::string path = "(" + RandomPath(&rng, 2)->ToString() + ")";
    const std::string target = "n" + std::to_string(rng.Below(g.num_nodes()));
    for (const std::string& text :
         {"?x " + path + " " + target,
          "?x " + path + " " + target + " . ?y c ?x",
          "?y b ?x . ?x " + path + " " + target}) {
      SCOPED_TRACE(text);
      Result<std::vector<TriplePattern>> patterns = ParseBgp(text);
      ASSERT_TRUE(patterns.ok()) << patterns.status();
      Result<std::vector<Binding>> ref = EvalBgp(store, *patterns);
      ASSERT_TRUE(ref.ok()) << ref.status();
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (MatrixRpqMode matrix :
             {MatrixRpqMode::kOff, MatrixRpqMode::kAlways}) {
          BgpPlanOptions opts;
          opts.parallel.num_threads = threads;
          opts.planner.matrix_rpq = matrix;
          Result<std::vector<Binding>> got = Profiled(
              &tally, [&] { return EvalBgpPlanned(store, *patterns, opts); });
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_EQ(*got, *ref) << "threads=" << threads << " matrix="
                                << (matrix == MatrixRpqMode::kAlways);
        }
      }
    }
  }
  if (!obs::kCompiledIn) return;
  EXPECT_GT(tally.leaves["PathAtom nfa-bound"], 0);
  EXPECT_GT(tally.leaves["PathAtom matrix-bound"], 0);
}

// Endpoint tests anchor unbound leaves at the nodes passing them: a
// Filter over an EdgeScan endpoint, and a `?label` folded at either end
// of a regex. Label z labels nothing, so its anchor set is empty.
TEST_P(BindDifferential, LabelAnchorsMatchReference) {
  Rng rng(8300 + GetParam());
  LabeledGraph g = SkewedGraph(&rng);
  EngineTally tally;
  const char* tests[] = {"p", "q", "z"};
  for (int round = 0; round < 6; ++round) {
    Crpq single;
    single.atoms.push_back(
        {"x", "y",
         rng.Bernoulli(0.5) ? Regex::EdgeLabelBwd("a") : RandomPath(&rng, 2)});
    single.node_tests[rng.Bernoulli(0.5) ? "x" : "y"] =
        TestExpr::Label(tests[rng.Below(3)]);
    single.head = {"x", "y"};
    ExpectCrpqMatchesReference(g, single, &tally);

    Crpq joined = single;
    joined.atoms.push_back({"y", "w", RandomPath(&rng, 2)});
    joined.head = {"w"};
    if (rng.Bernoulli(0.5)) joined.limit = 1 + rng.Below(4);
    ExpectCrpqMatchesReference(g, joined, &tally);
  }
  if (!obs::kCompiledIn) return;
  EXPECT_GT(tally.leaves["EdgeScan csr-bound"] +
                tally.leaves["PathAtom nfa-bound"] +
                tally.leaves["PathAtom matrix-bound"],
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindDifferential, ::testing::Range(0, 16));

// ---- The benchmark's query shapes on a small DBLP-synth graph ----

struct ShapeGraph {
  LabeledGraph graph;
  TripleStore store;
  std::vector<NodeId> papers, authors;
  std::vector<std::pair<std::string, NodeId>> keywords;  // label, node
};

ShapeGraph MakeShapeGraph() {
  DblpGraphOptions opts;
  opts.num_papers = 160;
  opts.num_authors = 50;
  opts.num_venues = 6;
  Rng rng(3);
  ShapeGraph s{BuildDblpGraph(opts, &rng), {}, {}, {}, {}};
  s.store = LabeledToRdf(s.graph);
  for (NodeId n = 0; n < s.graph.num_nodes(); ++n) {
    const std::string& label = s.graph.NodeLabelString(n);
    if (label == "paper") {
      s.papers.push_back(n);
    } else if (label == "author") {
      s.authors.push_back(n);
    } else if (label != "venue") {
      s.keywords.emplace_back(label, n);
    }
  }
  return s;
}

// The twelve anchored serve-mix shapes (BGP, MATCH, CRPQ) and the
// path-bulk shapes, compared with the oracle of their front-end.
TEST(BindShapes, ServeAndBulkShapesMatchOracles) {
  const ShapeGraph s = MakeShapeGraph();
  ASSERT_FALSE(s.keywords.empty());
  LabeledGraphView view(s.graph);
  CsrSnapshot snap = CsrSnapshot::FromGraph(s.graph);
  EngineTally tally;

  std::vector<std::string> bgp, match, crpq;
  for (size_t i = 0; i < 6; ++i) {
    const std::string p =
        "n" + std::to_string(s.papers[i * 17 % s.papers.size()]);
    const std::string a =
        "n" + std::to_string(s.authors[i * 7 % s.authors.size()]);
    bgp.push_back(p + " cites ?q . ?a writes ?q");
    bgp.push_back("?a writes " + p + " . ?a writes ?q");
    bgp.push_back(p + " (cites/cites) ?r");
    bgp.push_back(a + " writes ?p . ?p cites ?q");
  }
  for (const auto& [kw, node] : s.keywords) {
    const std::string limit = std::to_string(3 + node % 8);
    match.push_back("MATCH (k: " + kw + ") -[ about^- ]-> (p) -[ in ]-> (v) "
                    "RETURN p, v LIMIT " + limit);
    match.push_back("MATCH (k: " + kw + ") -[ about^- ]-> (p) -[ writes^- ]-> "
                    "(a) RETURN a LIMIT " + limit);
    match.push_back("MATCH (a) -[ writes / writes^- ]-> (b) -[ writes / "
                    "writes^- ]-> (c) -[ writes / about ]-> (k: " + kw +
                    ") RETURN c");
    crpq.push_back("q(a, p) :- (k: " + kw + ") -[ about^- ]-> (p), (a) -[ "
                   "writes ]-> (p) LIMIT " + limit);
    crpq.push_back("q(v) :- (k: " + kw + ") -[ about^- / in ]-> (v) LIMIT " +
                   limit);
    crpq.push_back("q(c) :- (a) -[ writes / writes^- ]-> (b), (b) -[ writes / "
                   "writes^- ]-> (c), (c) -[ writes / about ]-> (k: " + kw +
                   ")");
    crpq.push_back("grammar SG { SG -> in SG in^- | in in^- } q(x) :- (x) -[ "
                   "SG ]-> (y), (y) -[ about ]-> (k: " + kw + ")");
    bgp.push_back("?x (cites*/about) n" + std::to_string(node));
  }
  crpq.push_back("q(a) :- (a) -[ writes / cites* / writes^- ]-> (b), (b) -[ "
                 "writes / about ]-> (k: " + s.keywords[0].first + ")");

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (MatrixRpqMode matrix :
         {MatrixRpqMode::kAuto, MatrixRpqMode::kAlways}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " matrix=" +
                   (matrix == MatrixRpqMode::kAlways ? "always" : "auto"));
      for (const std::string& text : bgp) {
        SCOPED_TRACE(text);
        Result<std::vector<TriplePattern>> patterns = ParseBgp(text);
        ASSERT_TRUE(patterns.ok()) << patterns.status();
        Result<std::vector<Binding>> ref = EvalBgp(s.store, *patterns);
        ASSERT_TRUE(ref.ok()) << ref.status();
        BgpPlanOptions opts;
        opts.parallel.num_threads = threads;
        opts.planner.matrix_rpq = matrix;
        Result<std::vector<Binding>> got = Profiled(
            &tally, [&] { return EvalBgpPlanned(s.store, *patterns, opts); });
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(*got, *ref);
      }
      for (const std::string& text : match) {
        SCOPED_TRACE(text);
        Result<MatchQuery> q = ParseMatchQuery(text);
        ASSERT_TRUE(q.ok()) << q.status();
        Result<QueryResult> ref = ExecuteMatch(view, *q);
        ASSERT_TRUE(ref.ok()) << ref.status();
        MatchPlanOptions opts;
        opts.parallel.num_threads = threads;
        opts.snapshot = &snap;
        opts.planner.matrix_rpq = matrix;
        Result<QueryResult> got = Profiled(
            &tally, [&] { return ExecuteMatchPlanned(view, *q, opts); });
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->columns, ref->columns);
        ASSERT_EQ(got->rows, ref->rows);
      }
      for (const std::string& text : crpq) {
        SCOPED_TRACE(text);
        Result<Crpq> q = ParseCrpq(text);
        ASSERT_TRUE(q.ok()) << q.status();
        Result<RowSet> ref = EvalCrpqReference(view, *q);
        ASSERT_TRUE(ref.ok()) << ref.status();
        CrpqOptions opts;
        opts.parallel.num_threads = threads;
        opts.snapshot = &snap;
        opts.planner.matrix_rpq = matrix;
        Result<RowSet> got =
            Profiled(&tally, [&] { return EvalCrpq(view, *q, opts); });
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(got->schema, ref->schema);
        ASSERT_EQ(got->rows, ref->rows);
      }
    }
  }
  if (!obs::kCompiledIn) return;
  EXPECT_GT(tally.offered["EdgeScan csr-bound"], 0);
  EXPECT_GT(tally.offered["PathAtom nfa-bound"], 0);
  EXPECT_GT(tally.leaves["PathAtom nfa-bound"], 0);
}

}  // namespace
}  // namespace kgq
