#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datasets/figure2.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "rpq/reference_eval.h"
#include "rpq/test_eval.h"

namespace kgq {
namespace {

RegexPtr Parse(const std::string& s) {
  Result<RegexPtr> r = ParseRegex(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status();
  return *r;
}

std::set<NodeId> StartNodes(const std::vector<Path>& paths) {
  std::set<NodeId> out;
  for (const Path& p : paths) out.insert(p.Start());
  return out;
}

std::set<NodeId> EndNodes(const std::vector<Path>& paths) {
  std::set<NodeId> out;
  for (const Path& p : paths) out.insert(p.End());
  return out;
}

// ------------------------------------------------------------- test atoms

TEST(TestEvalTest, LabelAtomOnLabeledGraph) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  TestPtr person = TestExpr::Label("person");
  EXPECT_TRUE(EvalNodeTest(view, *person, fig2::kJuan));
  EXPECT_FALSE(EvalNodeTest(view, *person, fig2::kBus));
  EXPECT_FALSE(EvalNodeTest(view, *person, fig2::kPedro));  // infected.
  Bitset nodes = MatchNodes(view, *person);
  EXPECT_EQ(nodes.Count(), 3u);  // Juan, Ana, Rosa.
}

TEST(TestEvalTest, PropertyAtomsFalseOnLabeledGraph) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  TestPtr t = TestExpr::PropEq("date", "3/4/21");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_FALSE(EvalEdgeTest(view, *t, e));
  }
}

TEST(TestEvalTest, PropertyAtomOnPropertyGraph) {
  PropertyGraph g = Figure2Property();
  PropertyGraphView view(g);
  TestPtr t = TestExpr::And(TestExpr::Label("rides"),
                            TestExpr::PropEq("date", "3/4/21"));
  Bitset edges = MatchEdges(view, *t);
  EXPECT_TRUE(edges.Test(fig2::kJuanRides));
  EXPECT_TRUE(edges.Test(fig2::kPedroRides));
  EXPECT_FALSE(edges.Test(fig2::kRosaRides));  // Different date.
  EXPECT_FALSE(edges.Test(fig2::kJuanAnaContact));  // Right date, not rides.
}

TEST(TestEvalTest, BooleanConnectives) {
  PropertyGraph g = Figure2Property();
  PropertyGraphView view(g);
  // ¬rides ∧ ¬owns: contact and lives edges only.
  TestPtr t = TestExpr::And(TestExpr::Not(TestExpr::Label("rides")),
                            TestExpr::Not(TestExpr::Label("owns")));
  Bitset edges = MatchEdges(view, *t);
  EXPECT_EQ(edges.Count(), 3u);
  EXPECT_TRUE(edges.Test(fig2::kJuanAnaContact));
  EXPECT_TRUE(edges.Test(fig2::kJuanAnaLives));
  EXPECT_TRUE(edges.Test(fig2::kAnaRosaContact));
}

TEST(TestEvalTest, FeatureAtomsOnVectorGraph) {
  VectorSchema schema;
  VectorGraph g = Figure2Vector(&schema);
  VectorGraphView view(g);
  // Row 0 is the label.
  TestPtr f1 = TestExpr::FeatEq(0, "person");
  Bitset nodes = MatchNodes(view, *f1);
  EXPECT_EQ(nodes.Count(), 3u);
  // The date row of the schema matches the two 3/4/21 rides + contact.
  int date_row = schema.IndexOf("date");
  ASSERT_GE(date_row, 0);
  TestPtr fdate = TestExpr::FeatEq(static_cast<size_t>(date_row), "3/4/21");
  Bitset edges = MatchEdges(view, *fdate);
  EXPECT_EQ(edges.Count(), 3u);
  // Out-of-range feature indexes are simply false.
  TestPtr fbig = TestExpr::FeatEq(99, "person");
  EXPECT_EQ(MatchNodes(view, *fbig).Count(), 0u);
}

// MatchNodes / MatchEdges and ResolvedTest resolve label atoms once per
// call; every answer must equal the per-element EvalNodeTest /
// EvalEdgeTest path, on all three models, labels that exist nowhere
// included.
TEST(TestEvalTest, ResolvedLabelsEqualPerElementEvaluation) {
  const std::vector<TestPtr> tests = {
      TestExpr::Label("person"),
      TestExpr::Label("rides"),
      TestExpr::Label("no_such_label"),
      TestExpr::Not(TestExpr::Label("no_such_label")),
      TestExpr::Or(TestExpr::Label("bus"), TestExpr::Label("contact")),
      TestExpr::And(TestExpr::Label("rides"),
                    TestExpr::PropEq("date", "3/4/21")),
      TestExpr::And(TestExpr::Not(TestExpr::Label("person")),
                    TestExpr::FeatEq(0, "bus")),
      TestExpr::True(),
  };
  auto check = [&](const GraphView& view, const char* model) {
    for (const TestPtr& t : tests) {
      SCOPED_TRACE(std::string(model) + " " + t->ToString());
      ResolvedTest resolved(view, *t);
      Bitset nodes = MatchNodes(view, *t);
      for (NodeId n = 0; n < view.num_nodes(); ++n) {
        const bool want = EvalNodeTest(view, *t, n);
        EXPECT_EQ(nodes.Test(n), want) << "node " << n;
        EXPECT_EQ(resolved.MatchesNode(n), want) << "node " << n;
      }
      Bitset edges = MatchEdges(view, *t);
      for (EdgeId e = 0; e < view.num_edges(); ++e) {
        const bool want = EvalEdgeTest(view, *t, e);
        EXPECT_EQ(edges.Test(e), want) << "edge " << e;
        EXPECT_EQ(resolved.MatchesEdge(e), want) << "edge " << e;
      }
    }
  };
  LabeledGraph labeled = Figure2Labeled();
  PropertyGraph property = Figure2Property();
  VectorGraph vector = Figure2Vector();
  check(LabeledGraphView(labeled), "labeled");
  check(PropertyGraphView(property), "property");
  check(VectorGraphView(vector), "vector");
  // Sanity: the label atoms do match something on each model.
  EXPECT_EQ(MatchNodes(LabeledGraphView(labeled), *tests[0]).Count(), 3u);
  EXPECT_EQ(MatchNodes(VectorGraphView(vector), *tests[0]).Count(), 3u);
  EXPECT_EQ(MatchNodes(PropertyGraphView(property), *tests[2]).Count(), 0u);
}

// -------------------------------------------------- reference semantics

TEST(ReferenceEvalTest, NodeTestGivesTrivialPaths) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> paths = EvalReference(view, *Parse("?bus"), 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], Path::Trivial(fig2::kBus));
}

TEST(ReferenceEvalTest, EdgeAtomForwardAndBackward) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> fwd = EvalReference(view, *Parse("rides"), 4);
  EXPECT_EQ(fwd.size(), 3u);
  for (const Path& p : fwd) EXPECT_EQ(p.End(), fig2::kBus);
  std::vector<Path> bwd = EvalReference(view, *Parse("rides^-"), 4);
  EXPECT_EQ(bwd.size(), 3u);
  for (const Path& p : bwd) EXPECT_EQ(p.Start(), fig2::kBus);
}

TEST(ReferenceEvalTest, PaperPossiblyInfectedAnswer) {
  // ?person/rides/?bus/rides^-/?infected : people who shared a bus with
  // an infected person — Juan and Rosa (not Ana, who did not ride).
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> paths =
      EvalReference(view, *Parse("?person/rides/?bus/rides^-/?infected"), 8);
  EXPECT_EQ(StartNodes(paths), (std::set<NodeId>{fig2::kJuan, fig2::kRosa}));
  EXPECT_EQ(EndNodes(paths), (std::set<NodeId>{fig2::kPedro}));
  for (const Path& p : paths) {
    EXPECT_EQ(p.Length(), 2u);
    EXPECT_EQ(p.nodes[1], fig2::kBus);
    EXPECT_TRUE(p.IsValidIn(g.topology()));
  }
}

TEST(ReferenceEvalTest, PaperDateRestrictedContact) {
  // Equation (3): ?person/(contact ∧ date=3/4/21)/?infected — on Figure 2
  // no contact edge reaches the infected node, so the answer is empty;
  // the unrestricted contact query has answers.
  PropertyGraph g = Figure2Property();
  PropertyGraphView view(g);
  std::vector<Path> none = EvalReference(
      view, *Parse("?person/[contact & date=\"3/4/21\"]/?infected"), 4);
  EXPECT_TRUE(none.empty());
  std::vector<Path> contacts = EvalReference(
      view, *Parse("?person/[contact & date=\"3/4/21\"]/?person"), 4);
  ASSERT_EQ(contacts.size(), 1u);
  EXPECT_EQ(contacts[0].Start(), fig2::kJuan);
  EXPECT_EQ(contacts[0].End(), fig2::kAna);
}

TEST(ReferenceEvalTest, PaperVectorFormulationAgrees) {
  // The paper rewrites (3) over the vector-labeled model; the answers
  // must match the property-graph formulation modulo model.
  VectorSchema schema;
  VectorGraph vg = Figure2Vector(&schema);
  VectorGraphView vview(vg);
  int date_row = schema.IndexOf("date");
  ASSERT_GE(date_row, 0);
  std::string q = "?f1=person/[f1=contact & f" + std::to_string(date_row + 1) +
                  "=\"3/4/21\"]/?f1=person";
  std::vector<Path> vpaths = EvalReference(vview, *Parse(q), 4);

  PropertyGraph pg = Figure2Property();
  PropertyGraphView pview(pg);
  std::vector<Path> ppaths = EvalReference(
      pview, *Parse("?person/[contact & date=\"3/4/21\"]/?person"), 4);
  EXPECT_EQ(vpaths, ppaths);  // Same node/edge ids by construction.
}

TEST(ReferenceEvalTest, StarIncludesAllTrivialPaths) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> paths = EvalReference(view, *Parse("rides*"), 0);
  // Length cap 0: exactly the trivial path at every node.
  EXPECT_EQ(paths.size(), g.num_nodes());
}

TEST(ReferenceEvalTest, StarGrowsWithCap) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> cap0 = EvalReference(view, *Parse("(rides/rides^-)*"), 0);
  std::vector<Path> cap2 = EvalReference(view, *Parse("(rides/rides^-)*"), 2);
  std::vector<Path> cap4 = EvalReference(view, *Parse("(rides/rides^-)*"), 4);
  EXPECT_LT(cap0.size(), cap2.size());
  EXPECT_LT(cap2.size(), cap4.size());
  // All even lengths only.
  for (const Path& p : cap4) EXPECT_EQ(p.Length() % 2, 0u);
}

TEST(ReferenceEvalTest, UnionIsSetUnion) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> a = EvalReference(view, *Parse("lives"), 2);
  std::vector<Path> b = EvalReference(view, *Parse("contact"), 2);
  std::vector<Path> ab = EvalReference(view, *Parse("lives+contact"), 2);
  EXPECT_EQ(ab.size(), a.size() + b.size());
}

TEST(ReferenceEvalTest, InfectionPropagationQuery) {
  // r1 from the paper: people reachable from the infected person via the
  // bus and then lives/contact chains.
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  std::vector<Path> paths = EvalReference(
      view,
      *Parse("?infected/rides/?bus/rides^-/(?person/(lives+contact))*/"
             "?person"),
      8);
  std::set<NodeId> ends = EndNodes(paths);
  // Juan and Rosa directly; Ana via Juan's lives/contact; Rosa again via
  // Ana's contact.
  EXPECT_EQ(ends, (std::set<NodeId>{fig2::kJuan, fig2::kAna, fig2::kRosa}));
  for (const Path& p : paths) EXPECT_EQ(p.Start(), fig2::kPedro);
}

// ------------------------------------------------------ product automaton

TEST(PathNfaTest, MatchesAgreesWithReference) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  const std::vector<std::string> queries = {
      "?person/rides/?bus/rides^-/?infected",
      "rides/rides^-",
      "(lives+contact)*",
      "?person/(contact/contact)*/?person",
      "rides^-/rides",
      "owns^-",
      "?infected/rides/?bus/rides^-/(?person/(lives+contact))*/?person",
  };
  for (const std::string& q : queries) {
    RegexPtr regex = Parse(q);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << q;
    std::set<Path> expected;
    for (const Path& p : EvalReference(view, *regex, 5)) expected.insert(p);
    // Every reference answer must match; every matching enumeration of
    // all length-≤5 walks must be a reference answer. Walk enumeration:
    // via reference evaluation of the universal query true* restricted
    // to length 5.
    std::vector<Path> universe = EvalReference(view, *Parse("(true+true^-)*"), 5);
    for (const Path& p : universe) {
      EXPECT_EQ(nfa->Matches(p), expected.count(p) > 0)
          << q << " on " << p.ToString();
    }
  }
}

TEST(PathNfaTest, RejectsOversizedRegexAndGlushkovRaisesCeiling) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  // 41 atoms: Thompson needs > 64 states, Glushkov only 42.
  RegexPtr medium = Regex::EdgeLabel("a");
  for (int i = 0; i < 40; ++i) {
    medium = Regex::Union(std::move(medium), Regex::EdgeLabel("a"));
  }
  EXPECT_TRUE(
      PathNfa::Compile(view, *medium, PathNfa::Construction::kGlushkov)
          .ok());
  Result<PathNfa> thompson =
      PathNfa::Compile(view, *medium, PathNfa::Construction::kThompson);
  ASSERT_FALSE(thompson.ok());
  EXPECT_EQ(thompson.status().code(), StatusCode::kUnsupported);

  // 70 atoms exceed even Glushkov.
  RegexPtr large = std::move(medium);
  for (int i = 0; i < 30; ++i) {
    large = Regex::Union(std::move(large), Regex::EdgeLabel("a"));
  }
  Result<PathNfa> nfa = PathNfa::Compile(view, *large);
  ASSERT_FALSE(nfa.ok());
  EXPECT_EQ(nfa.status().code(), StatusCode::kUnsupported);
}

TEST(PathNfaTest, ThompsonAndGlushkovAgree) {
  // The two constructions must accept exactly the same paths.
  Rng rng(777);
  LabeledGraph g = ErdosRenyi(10, 25, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  RegexPtr universe_query = *ParseRegex("(true+true^-)*");
  std::vector<Path> universe = EvalReference(view, *universe_query, 4);
  for (const char* q :
       {"(a+b/b^-)*", "?p/a*/?q", "a/b+b/a", "((a+b)/a)*", "?p", "b^-"}) {
    RegexPtr regex = *ParseRegex(q);
    Result<PathNfa> glushkov =
        PathNfa::Compile(view, *regex, PathNfa::Construction::kGlushkov);
    Result<PathNfa> thompson =
        PathNfa::Compile(view, *regex, PathNfa::Construction::kThompson);
    ASSERT_TRUE(glushkov.ok() && thompson.ok()) << q;
    EXPECT_LE(glushkov->num_states(), thompson->num_states()) << q;
    for (const Path& p : universe) {
      EXPECT_EQ(glushkov->Matches(p), thompson->Matches(p))
          << q << " on " << p.ToString();
    }
  }
}

TEST(PathNfaTest, SelfLoopPathsAreNotDoubleCounted) {
  LabeledGraph g;
  NodeId n = g.AddNode("x");
  g.AddEdge(n, n, "loop").value();
  LabeledGraphView view(g);
  // Both loop and loop^- describe the same unique path n -e- n.
  RegexPtr regex = Parse("loop+loop^-");
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  std::vector<Path> ref = EvalReference(view, *regex, 2);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_TRUE(nfa->Matches(ref[0]));
}

TEST(PathNfaTest, SimulateDiesOnMalformedPath) {
  LabeledGraph g = Figure2Labeled();
  LabeledGraphView view(g);
  Result<PathNfa> nfa = PathNfa::Compile(view, *Parse("rides"));
  ASSERT_TRUE(nfa.ok());
  Path bogus{{fig2::kJuan, fig2::kAna}, {fig2::kJuanRides}};  // Wrong edge.
  EXPECT_EQ(nfa->Simulate(bogus), 0u);
  Path empty;
  EXPECT_EQ(nfa->Simulate(empty), 0u);
}

}  // namespace
}  // namespace kgq
