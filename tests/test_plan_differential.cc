// Randomized differential testing of the query planner: random
// conjunctive queries with regular path atoms over ER and BA graphs,
// planned execution (optimized and naive, on the view's own CSR and on a
// given snapshot, matrix RPQ engine forced and off, at 1 and 4 threads)
// against the retained reference evaluators of all three front-ends,
// and the front-ends' default plans against the planner over the view's
// own label statistics.
// The planner may pick any join order and any physical operator — the
// canonical output discipline (sorted, deduplicated, limited) makes the
// comparison bit-exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "oracles/crpq_reference.h"
#include "oracles/match_reference.h"
#include "plan/exec.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/rdf_view.h"
#include "rdf/triple_store.h"
#include "rpq/crpq.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Random regex over edge labels {a, b} and node labels {p, q} — the
/// same alphabet test_regex_fuzz.cc uses, kept small so pair relations
/// stay dense enough to exercise the joins.
RegexPtr RandomPath(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.4)) {
    switch (rng->Below(4)) {
      case 0:
        return Regex::EdgeLabel(rng->Bernoulli(0.5) ? "a" : "b");
      case 1:
        return Regex::EdgeLabelBwd(rng->Bernoulli(0.5) ? "a" : "b");
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

/// Random CRPQ: 2–4 variables, 1–3 atoms over them, random node tests,
/// maybe a test-only variable, random head and limit.
Crpq RandomCrpq(Rng* rng) {
  Crpq q;
  const std::vector<std::string> pool = {"v0", "v1", "v2", "v3"};
  size_t num_vars = 2 + rng->Below(3);
  size_t num_atoms = 1 + rng->Below(3);
  std::vector<std::string> used;
  for (size_t i = 0; i < num_atoms; ++i) {
    std::string src = pool[rng->Below(num_vars)];
    std::string dst = pool[rng->Below(num_vars)];
    q.atoms.push_back({src, dst, RandomPath(rng, 2)});
    used.push_back(src);
    used.push_back(dst);
  }
  // Random node tests on some atom variables.
  for (const std::string& v : used) {
    if (rng->Bernoulli(0.3)) {
      q.node_tests[v] = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    }
  }
  // Sometimes a test-only variable (NodeScan path).
  if (rng->Bernoulli(0.25)) {
    q.node_tests["w"] = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    used.push_back("w");
  }
  // Head: 1–2 distinct declared variables.
  size_t h = 1 + rng->Below(2);
  for (size_t i = 0; i < h; ++i) {
    const std::string& v = used[rng->Below(used.size())];
    if (std::find(q.head.begin(), q.head.end(), v) == q.head.end()) {
      q.head.push_back(v);
    }
  }
  if (rng->Bernoulli(0.3)) q.limit = 1 + rng->Below(10);
  return q;
}

/// Random MATCH chain of 1–3 hops with random endpoint tests, returning
/// its two ends, maybe limited.
MatchQuery RandomMatch(Rng* rng) {
  MatchQuery mq;
  size_t hops = 1 + rng->Below(3);
  for (size_t i = 0; i <= hops; ++i) {
    NodePattern np;
    np.var = "x" + std::to_string(i);
    if (rng->Bernoulli(0.4)) {
      np.test = TestExpr::Label(rng->Bernoulli(0.5) ? "p" : "q");
    }
    mq.nodes.push_back(std::move(np));
    if (i < hops) {
      mq.paths.push_back(PathExpr::Regular(RandomPath(rng, 2)));
    }
  }
  mq.returns = {"x0", "x" + std::to_string(hops)};
  if (rng->Bernoulli(0.3)) mq.limit = 1 + rng->Below(8);
  return mq;
}

/// The plan a front-end builds for `cq` (PlanOverView), executed on a
/// given snapshot (ExecOptions::snapshot) instead of the view's own.
Result<RowSet> ExecuteOn(const GraphView& view, const ConjunctiveQuery& cq,
                         const QueryOptions& opts,
                         const CsrSnapshot* snapshot) {
  KGQ_ASSIGN_OR_RETURN(LogicalOpPtr plan,
                       PlanOverView(view, cq, opts.planner));
  ExecOptions eopts;
  eopts.parallel = opts.parallel;
  eopts.snapshot = snapshot;
  return ExecutePlan(view, *plan, eopts);
}

/// A profile tree's deterministic fields — operator kind, engine and
/// rows out — as one string.
std::string ProfileShape(const obs::ProfileNode& node) {
  std::string out = node.kind + "[" + node.engine + "]" +
                    std::to_string(node.rows_out) + "(";
  for (const auto& child : node.children) out += ProfileShape(*child);
  return out + ")";
}

/// Runs `run` under a request-scoped trace and returns its profile
/// shape.
template <typename Fn>
std::string ProfiledShape(Fn&& run) {
  obs::TraceContext ctx;
  {
    obs::ScopedTrace trace(&ctx);
    run();
  }
  std::shared_ptr<const obs::ProfileNode> profile = ctx.TakeProfile();
  return profile == nullptr ? "" : ProfileShape(*profile);
}

class PlanDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PlanDifferential, PlannedCrpqMatchesReference) {
  const int seed = GetParam();
  Rng rng(9000 + seed);
  // Alternate graph families; sizes stay small because the reference
  // oracle is a nested-loop join.
  LabeledGraph g =
      (seed % 2 == 0)
          ? ErdosRenyi(10 + rng.Below(8), 25 + rng.Below(25), {"p", "q"},
                       {"a", "b"}, &rng)
          : BarabasiAlbert(12 + rng.Below(8), 2, {"p", "q"}, {"a", "b"},
                           &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  PlannerOptions naive;
  naive.push_filters = false;
  naive.reorder_joins = false;
  naive.edge_scan_fastpath = false;
  naive.matrix_rpq = MatrixRpqMode::kOff;

  for (int round = 0; round < 5; ++round) {
    Crpq q = RandomCrpq(&rng);
    SCOPED_TRACE(q.ToString());
    Result<RowSet> ref = EvalCrpqReference(view, q);
    ASSERT_TRUE(ref.ok()) << ref.status();

    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool with_snapshot : {false, true}) {
        for (bool optimized : {true, false}) {
          // The matrix engine is a pure physical choice: forcing it on
          // (or off) must never change a row, on optimized and naive
          // plans alike, on the view's own snapshot or a given one.
          for (MatrixRpqMode matrix :
               {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
            QueryOptions opts;
            opts.parallel.num_threads = threads;
            if (!optimized) opts.planner = naive;
            opts.planner.matrix_rpq = matrix;
            Result<RowSet> got =
                with_snapshot ? ExecuteOn(view, *CompileCrpq(q), opts, &snap)
                              : EvalCrpq(view, q, opts);
            ASSERT_TRUE(got.ok()) << got.status();
            ASSERT_EQ(got->schema, ref->schema);
            ASSERT_EQ(got->rows, ref->rows)
                << "threads=" << threads << " snapshot=" << with_snapshot
                << " optimized=" << optimized
                << " matrix=" << (matrix == MatrixRpqMode::kAlways);
          }
        }
      }
    }
  }
}

TEST_P(PlanDifferential, PlannedMatchQueryMatchesReference) {
  const int seed = GetParam();
  Rng rng(4000 + seed);
  LabeledGraph g = ErdosRenyi(10 + rng.Below(6), 30 + rng.Below(20),
                              {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  CsrSnapshot snap = CsrSnapshot::FromGraph(g);

  for (int round = 0; round < 4; ++round) {
    MatchQuery mq = RandomMatch(&rng);
    SCOPED_TRACE(mq.ToString());

    Result<QueryResult> ref = ExecuteMatch(view, mq);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool with_snapshot : {false, true}) {
        for (MatrixRpqMode matrix :
             {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
          QueryOptions opts;
          opts.parallel.num_threads = threads;
          opts.planner.matrix_rpq = matrix;
          Result<QueryResult> got = ExecuteMatchPlanned(view, mq, opts);
          if (with_snapshot) {
            Result<RowSet> rows =
                ExecuteOn(view, *CompileMatch(mq), opts, &snap);
            ASSERT_TRUE(rows.ok()) << rows.status();
            got = QueryResult{rows->schema, rows->rows};
          }
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_EQ(got->columns, ref->columns);
          ASSERT_EQ(got->rows, ref->rows)
              << "threads=" << threads << " snapshot=" << with_snapshot
              << " matrix=" << (matrix == MatrixRpqMode::kAlways);
        }
      }
    }
  }
}

TEST_P(PlanDifferential, PlannedBgpMatchesReference) {
  const int seed = GetParam();
  Rng rng(7000 + seed);
  // Random small triple store: subjects/objects from a small universe,
  // predicates from {a, b, type}; "type" triples double as node labels.
  TripleStore store;
  size_t n_terms = 6 + rng.Below(5);
  size_t n_triples = 15 + rng.Below(20);
  auto term = [&](size_t i) { return "t" + std::to_string(i); };
  for (size_t i = 0; i < n_triples; ++i) {
    const char* preds[] = {"a", "b"};
    store.Insert(term(rng.Below(n_terms)), preds[rng.Below(2)],
                 term(rng.Below(n_terms)));
  }
  for (size_t i = 0; i < n_terms; ++i) {
    if (rng.Bernoulli(0.4)) {
      store.Insert(term(i), "type", rng.Bernoulli(0.5) ? "p" : "q");
    }
  }

  const std::vector<std::string> queries = {
      "?x a ?y",
      "?x a ?y . ?y b ?z",
      "?x a ?y . ?y a ?x",
      "?x (a/b) ?y",
      "?x ((a+b)*) ?y . ?y type p",
      "?x a t0",
      "t1 (a^-) ?x . ?x b ?y",
      "?x a ?x",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    Result<std::vector<TriplePattern>> patterns = ParseBgp(text);
    ASSERT_TRUE(patterns.ok()) << patterns.status();
    Result<std::vector<Binding>> ref = EvalBgp(store, *patterns);
    ASSERT_TRUE(ref.ok()) << ref.status();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (MatrixRpqMode matrix :
           {MatrixRpqMode::kAlways, MatrixRpqMode::kOff}) {
        QueryOptions opts;
        opts.parallel.num_threads = threads;
        opts.planner.matrix_rpq = matrix;
        Result<std::vector<Binding>> got =
            EvalBgpPlanned(store, *patterns, opts);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_EQ(*got, *ref)
            << "threads=" << threads
            << " matrix=" << (matrix == MatrixRpqMode::kAlways);
      }
    }
  }
}

// One planner configuration: with default options, EvalCrpq and
// ExecuteMatchPlanned plan exactly as PlanQuery over the view's own
// label statistics (GraphStats::From(&view, &view.Csr())) — the plan
// the server builds too. The EXPLAIN of the shared planning step must
// match, and with obs compiled in, so must the profile tree (kind,
// engine, rows) of what each front-end actually executed.
TEST_P(PlanDifferential, FrontEndsPlanOverTheViewsOwnStatistics) {
  const int seed = GetParam();
  Rng rng(9000 + seed);
  LabeledGraph g =
      (seed % 2 == 0)
          ? ErdosRenyi(10 + rng.Below(8), 25 + rng.Below(25), {"p", "q"},
                       {"a", "b"}, &rng)
          : BarabasiAlbert(12 + rng.Below(8), 2, {"p", "q"}, {"a", "b"},
                           &rng);
  LabeledGraphView view(g);
  const GraphStats stats = GraphStats::From(&view, &view.Csr());
  const bool profiled = obs::kCompiledIn && obs::Registry::Enabled();

  for (int round = 0; round < 5; ++round) {
    Crpq q = RandomCrpq(&rng);
    SCOPED_TRACE(q.ToString());
    Result<ConjunctiveQuery> cq = CompileCrpq(q);
    ASSERT_TRUE(cq.ok()) << cq.status();
    Result<LogicalOpPtr> want = PlanQuery(*cq, stats);
    ASSERT_TRUE(want.ok()) << want.status();
    Result<LogicalOpPtr> got = PlanOverView(view, *cq);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(ExplainPlan(**got), ExplainPlan(**want));
    if (profiled) {
      const std::string shape =
          ProfiledShape([&] { (void)EvalCrpq(view, q); });
      ASSERT_FALSE(shape.empty());
      EXPECT_EQ(shape,
                ProfiledShape([&] { (void)ExecutePlan(view, **want); }))
          << ExplainPlan(**want);
    }

    MatchQuery mq = RandomMatch(&rng);
    SCOPED_TRACE(mq.ToString());
    Result<ConjunctiveQuery> mcq = CompileMatch(mq);
    ASSERT_TRUE(mcq.ok()) << mcq.status();
    Result<LogicalOpPtr> mwant = PlanQuery(*mcq, stats);
    ASSERT_TRUE(mwant.ok()) << mwant.status();
    EXPECT_EQ(ExplainPlan(**PlanOverView(view, *mcq)), ExplainPlan(**mwant));
    if (profiled) {
      const std::string shape =
          ProfiledShape([&] { (void)ExecuteMatchPlanned(view, mq); });
      ASSERT_FALSE(shape.empty());
      EXPECT_EQ(shape,
                ProfiledShape([&] { (void)ExecutePlan(view, **mwant); }))
          << ExplainPlan(**mwant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferential, ::testing::Range(0, 32));

}  // namespace
}  // namespace kgq
