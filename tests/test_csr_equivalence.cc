// Differential suite for the CSR-backed kernels — the only adjacency the
// path, analytics and GNN kernels read. Over 52 seeded random labeled
// graphs (with multi-edges, self-loops, isolated nodes and empty label
// sets), every kernel must agree with an oracle that shares none of its
// code: the paper-literal path evaluator (EvalReference), a relational
// evaluation of pair semantics, brute-force betweenness (BruteForceBc,
// BruteForceBcr), the defining equations of PageRank and HITS, and
// pinned values. Each path kernel runs on a snapshot passed in by the
// caller and on the graph's memoized one; every kernel runs at one thread
// and at four; all runs must be bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/pagerank.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "oracles/betweenness_brute.h"
#include "pathalg/enumerate.h"
#include "pathalg/exact.h"
#include "pathalg/fpras.h"
#include "pathalg/pairs.h"
#include "rpq/path_nfa.h"
#include "rpq/reference_eval.h"
#include "rpq/regex.h"
#include "rpq/test_eval.h"
#include "util/rng.h"

namespace kgq {
namespace {

/// Random regex over edge labels {a, b} and node labels {p, q} — the
/// same distribution as the regex fuzzer, including pure-label atoms
/// (the partition fast path), bwd atoms, negated tests (the filtered
/// path) and labels the graph may not contain (the dead-atom path).
RegexPtr RandomRegex(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.35)) {
    switch (rng->Below(6)) {
      case 0:
        return Regex::EdgeLabel(rng->Bernoulli(0.5) ? "a" : "b");
      case 1:
        return Regex::EdgeLabelBwd(rng->Bernoulli(0.5) ? "a" : "b");
      case 2:
        return Regex::NodeLabel(rng->Bernoulli(0.5) ? "p" : "q");
      case 3:
        return Regex::EdgeFwd(
            TestExpr::Or(TestExpr::Label("a"), TestExpr::Label("b")));
      case 4:
        return Regex::EdgeFwd(TestExpr::Not(TestExpr::Label("a")));
      default:
        return Regex::NodeTest(TestExpr::True());
    }
  }
  switch (rng->Below(3)) {
    case 0:
      return Regex::Union(RandomRegex(rng, depth - 1),
                          RandomRegex(rng, depth - 1));
    case 1:
      return Regex::Concat(RandomRegex(rng, depth - 1),
                           RandomRegex(rng, depth - 1));
    default:
      return Regex::Star(RandomRegex(rng, depth - 1));
  }
}

/// Graph zoo indexed by seed: degenerate shapes (empty graph, no edges
/// and hence an empty label set, single label) cycle through alongside
/// multigraph-heavy and sparse/isolated-node random instances.
LabeledGraph MakeGraph(uint64_t seed, Rng* rng) {
  switch (seed % 8) {
    case 0:
      return LabeledGraph();  // 0 nodes, 0 edges.
    case 1: {
      LabeledGraph g;  // Nodes but no edges: empty label set.
      for (int i = 0; i < 5; ++i) g.AddNode(i % 2 == 0 ? "p" : "q");
      return g;
    }
    case 2:
      return Cycle(6, "p", "a");  // Single edge label.
    case 3: {
      // Three nodes, 18 edges: saturated with parallels and self-loops.
      std::vector<size_t> degrees = {6, 6, 6};
      return FixedOutDegreeGraph(degrees, {"p", "q"}, {"a", "b"}, rng);
    }
    case 4:
      return ErdosRenyi(12, 40, {"p", "q"}, {"a", "b"}, rng);
    case 5:
      return ErdosRenyi(16, 10, {"p", "q"}, {"a", "b"}, rng);  // Isolates.
    case 6:
      return BarabasiAlbert(14, 2, {"p", "q"}, {"a", "b"}, rng);
    default:
      return ErdosRenyi(6 + rng->Below(8), rng->Below(30), {"p", "q"},
                        {"a", "b"}, rng);
  }
}

ParallelOptions Threads(size_t k) {
  ParallelOptions par;
  par.num_threads = k;
  return par;
}

/// Boolean n×n relation, row-major.
using Relation = std::vector<std::vector<bool>>;

/// Pair semantics {(start(p), end(p)) : p ∈ ⟦r⟧} evaluated relationally
/// over the edge lists: atoms are edge (or identity) relations, `/` is
/// composition, `+` union and `*` the reflexive-transitive closure.
/// Shares no code with the product automaton or the snapshot.
Relation PairRelation(const GraphView& view, const Regex& r) {
  const Multigraph& g = view.topology();
  const size_t n = g.num_nodes();
  Relation out(n, std::vector<bool>(n, false));
  switch (r.kind()) {
    case Regex::Kind::kNodeTest:
      for (NodeId v = 0; v < n; ++v) {
        out[v][v] = EvalNodeTest(view, *r.test(), v);
      }
      return out;
    case Regex::Kind::kEdgeFwd:
    case Regex::Kind::kEdgeBwd: {
      const bool bwd = r.kind() == Regex::Kind::kEdgeBwd;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!EvalEdgeTest(view, *r.test(), e)) continue;
        NodeId s = g.EdgeSource(e), t = g.EdgeTarget(e);
        if (bwd) std::swap(s, t);
        out[s][t] = true;
      }
      return out;
    }
    case Regex::Kind::kUnion: {
      Relation a = PairRelation(view, *r.lhs());
      Relation b = PairRelation(view, *r.rhs());
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) out[i][j] = a[i][j] || b[i][j];
      }
      return out;
    }
    case Regex::Kind::kConcat: {
      Relation a = PairRelation(view, *r.lhs());
      Relation b = PairRelation(view, *r.rhs());
      for (size_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < n; ++k) {
          if (!a[i][k]) continue;
          for (size_t j = 0; j < n; ++j) {
            if (b[k][j]) out[i][j] = true;
          }
        }
      }
      return out;
    }
    case Regex::Kind::kStar: {
      out = PairRelation(view, *r.lhs());
      for (size_t i = 0; i < n; ++i) out[i][i] = true;
      // Warshall closure.
      for (size_t k = 0; k < n; ++k) {
        for (size_t i = 0; i < n; ++i) {
          if (!out[i][k]) continue;
          for (size_t j = 0; j < n; ++j) {
            if (out[k][j]) out[i][j] = true;
          }
        }
      }
      return out;
    }
  }
  return out;
}

std::vector<Bitset> ToRows(const Relation& rel) {
  std::vector<Bitset> rows;
  for (const std::vector<bool>& r : rel) {
    Bitset row(r.size());
    for (size_t j = 0; j < r.size(); ++j) {
      if (r[j]) row.Set(j);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class CsrEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CsrEquivalence, PathKernelsMatchOracles) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(7000 + seed);
  LabeledGraph g = MakeGraph(seed, &rng);
  LabeledGraphView view(g);
  const CsrSnapshot given = CsrSnapshot::FromGraph(g);
  const size_t max_len = 3;

  for (int round = 0; round < 3; ++round) {
    RegexPtr regex = RandomRegex(&rng, 3);
    SCOPED_TRACE(regex->ToString());
    const std::vector<Bitset> want_pairs = ToRows(PairRelation(view, *regex));
    std::vector<std::set<Path>> want_paths(max_len + 1);
    for (Path& p : EvalReference(view, *regex, max_len)) {
      want_paths[p.Length()].insert(std::move(p));
    }

    for (PathNfa::Construction cons :
         {PathNfa::Construction::kGlushkov, PathNfa::Construction::kThompson}) {
      Result<PathNfa> memo_nfa = PathNfa::Compile(view, *regex, cons);
      Result<PathNfa> given_nfa = PathNfa::Compile(view, *regex, cons, &given);
      ASSERT_TRUE(memo_nfa.ok()) << memo_nfa.status();
      ASSERT_TRUE(given_nfa.ok()) << given_nfa.status();
      ASSERT_EQ(&memo_nfa->snapshot(), &g.Csr());
      ASSERT_EQ(&given_nfa->snapshot(), &given);

      for (const PathNfa* nfa : {&*memo_nfa, &*given_nfa}) {
        // Existential pair semantics, sequential and parallel, on both
        // engines: every row equals the relational oracle.
        for (size_t threads : {size_t{1}, size_t{4}}) {
          PathQueryOptions popts;
          popts.parallel = Threads(threads);
          ASSERT_EQ(AllPairs(*nfa, popts), want_pairs)
              << "threads=" << threads;
          popts.engine = PathEngine::kMatrix;
          ASSERT_EQ(AllPairs(*nfa, popts), want_pairs)
              << "matrix threads=" << threads;
        }
        for (NodeId start = 0; start < g.num_nodes(); ++start) {
          ASSERT_EQ(ReachableFrom(*nfa, start), want_pairs[start])
              << "start=" << start;
        }

        for (size_t k = 0; k <= max_len; ++k) {
          // Enumeration yields exactly the reference paths of length k,
          // each once; the exact counter counts them.
          PathEnumerator enumerator(*nfa, k);
          std::set<Path> got;
          Path p;
          while (enumerator.Next(&p)) {
            ASSERT_TRUE(got.insert(p).second) << "duplicate " << p.ToString();
          }
          ASSERT_EQ(got, want_paths[k]) << "k=" << k;
          ExactPathIndex index(*nfa, k);
          ASSERT_EQ(index.Count(k), static_cast<double>(want_paths[k].size()))
              << "k=" << k;
        }
      }

      // Enumeration order and the FPRAS rng stream follow the step
      // order, which depends on the graph alone: the given snapshot and
      // the memo must produce the same sequence, estimate and samples.
      for (size_t k = 0; k <= max_len; ++k) {
        ASSERT_EQ(PathEnumerator(*given_nfa, k).Drain(),
                  PathEnumerator(*memo_nfa, k).Drain())
            << "k=" << k;
      }
      FprasOptions fopts;
      fopts.samples_per_state = 16;
      fopts.union_trials = 32;
      fopts.seed = 0xC0FFEE + seed;
      FprasPathCounter memo_fpras(*memo_nfa, max_len, {}, fopts);
      FprasPathCounter given_fpras(*given_nfa, max_len, {}, fopts);
      ASSERT_EQ(given_fpras.Estimate(), memo_fpras.Estimate());
      ASSERT_EQ(given_fpras.num_sketches(), memo_fpras.num_sketches());
      Rng memo_rng(42 + seed), given_rng(42 + seed);
      for (int s = 0; s < 5; ++s) {
        Result<Path> memo_p = memo_fpras.Sample(&memo_rng);
        Result<Path> given_p = given_fpras.Sample(&given_rng);
        ASSERT_EQ(given_p.ok(), memo_p.ok());
        if (!memo_p.ok()) break;
        ASSERT_EQ(*given_p, *memo_p) << given_p->ToString();
        // Every sample is a conforming path of the requested length.
        ASSERT_EQ(want_paths[max_len].count(*memo_p), 1u)
            << memo_p->ToString();
      }
      if (want_paths[max_len].empty()) {
        ASSERT_EQ(memo_fpras.Estimate(), 0.0);
      }
    }
  }
}

TEST_P(CsrEquivalence, AnalyticsMatchOracles) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(9000 + seed);
  LabeledGraph g = MakeGraph(seed, &rng);
  const Multigraph& topo = g.topology();
  const size_t n = g.num_nodes();

  // Brandes betweenness, both directions, 1 and 4 threads: the
  // definition up to rounding, and bit-identical across runs.
  for (EdgeDirection dir :
       {EdgeDirection::kDirected, EdgeDirection::kUndirected}) {
    const std::vector<double> brute = BruteForceBc(topo, dir);
    const std::vector<double> want = BetweennessCentrality(topo, dir);
    ASSERT_EQ(want.size(), brute.size());
    for (size_t v = 0; v < n; ++v) {
      EXPECT_NEAR(want[v], brute[v], 1e-9) << "node " << v;
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ASSERT_EQ(BetweennessCentrality(topo, dir, Threads(threads)), want)
          << "threads=" << threads;
    }
    // Pivot-sampled variant: same seed ⇒ same pivots ⇒ same numbers;
    // with every node a pivot it is the exact value.
    size_t pivots = std::min<size_t>(n, 5);
    Rng rng1(11 + seed), rng4(11 + seed);
    ASSERT_EQ(ApproxBetweennessCentrality(topo, dir, pivots, &rng4,
                                          Threads(4)),
              ApproxBetweennessCentrality(topo, dir, pivots, &rng1,
                                          Threads(1)));
    Rng all_rng(13 + seed);
    std::vector<double> all =
        ApproxBetweennessCentrality(topo, dir, n, &all_rng, Threads(4));
    for (size_t v = 0; v < n; ++v) {
      EXPECT_NEAR(all[v], brute[v], 1e-9) << "all pivots, node " << v;
    }
  }

  // PageRank: the scores sum to 1 and satisfy the pull equation
  // r[v] = (1-d)/n + d·dangling/n + d·Σ_{u→v} r[u]/outdeg(u), read off
  // the edge lists, up to what 100 power iterations leave.
  const std::vector<double> pr = PageRank(topo);
  if (n > 0) {
    PageRankOptions opts;
    double sum = 0.0, dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      sum += pr[v];
      if (topo.OutDegree(v) == 0) dangling += pr[v];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (NodeId v = 0; v < n; ++v) {
      double want = (1.0 - opts.damping) / n + opts.damping * dangling / n;
      for (EdgeId e : topo.InEdges(v)) {
        NodeId u = topo.EdgeSource(e);
        want += opts.damping * pr[u] / topo.OutDegree(u);
      }
      EXPECT_NEAR(pr[v], want, 1e-6) << "node " << v;
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PageRankOptions opts;
    opts.parallel = Threads(threads);
    ASSERT_EQ(PageRank(topo, opts), pr) << "threads=" << threads;
  }

  // HITS: the last half-step is hub = normalize(Σ_{v→w} authority[w]),
  // and both vectors are unit (or all-zero).
  const HitsScores hits = Hits(topo, 20);
  std::vector<double> hub(n, 0.0);
  double norm = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    for (EdgeId e : topo.OutEdges(v)) {
      hub[v] += hits.authority[topo.EdgeTarget(e)];
    }
    norm += hub[v] * hub[v];
  }
  norm = std::sqrt(norm);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(hits.hub[v], norm == 0.0 ? hub[v] : hub[v] / norm, 1e-12);
  }
}

TEST_P(CsrEquivalence, RegexBetweennessMatchesOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // bc_r couples a configuration BFS, the enumerator and the FPRAS per
  // source; run it on the smaller instances only to bound test time.
  if (seed % 4 != 2) GTEST_SKIP() << "bc_r subset";
  Rng rng(5000 + seed);
  LabeledGraph g = MakeGraph(seed, &rng);
  if (g.num_nodes() > 12) GTEST_SKIP() << "bc_r subset (size)";
  LabeledGraphView view(g);

  RegexPtr regex =
      Regex::Star(Regex::Union(Regex::EdgeLabel("a"), Regex::EdgeLabel("b")));

  BcrOptions opts;
  opts.max_path_length = 4;
  Result<std::vector<double>> want = RegexBetweenness(view, *regex, opts);
  ASSERT_TRUE(want.ok()) << want.status();
  const std::vector<double> brute = BruteForceBcr(view, *regex, 4);
  for (size_t v = 0; v < brute.size(); ++v) {
    EXPECT_NEAR((*want)[v], brute[v], 1e-9) << "node " << v;
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    opts.parallel = Threads(threads);
    Result<std::vector<double>> got = RegexBetweenness(view, *regex, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, *want) << "threads=" << threads;
  }

  // Approximate bc_r: fixed master seed ⇒ identical source plans and
  // per-source streams ⇒ identical output at 1 and 4 threads.
  BcrOptions approx_opts;
  approx_opts.max_path_length = 4;
  approx_opts.fpras.samples_per_state = 8;
  approx_opts.fpras.union_trials = 16;
  approx_opts.parallel = Threads(1);
  Rng rng1(77 + seed);
  Result<std::vector<double>> approx1 =
      RegexBetweennessApprox(view, *regex, approx_opts, &rng1);
  ASSERT_TRUE(approx1.ok()) << approx1.status();
  approx_opts.parallel = Threads(4);
  Rng rng4(77 + seed);
  Result<std::vector<double>> approx4 =
      RegexBetweennessApprox(view, *regex, approx_opts, &rng4);
  ASSERT_TRUE(approx4.ok()) << approx4.status();
  ASSERT_EQ(*approx4, *approx1);
}

// 52 seeds × the graph zoo: every degenerate shape appears at least six
// times, the random shapes ~20 times each.
INSTANTIATE_TEST_SUITE_P(Seeds, CsrEquivalence, ::testing::Range(0, 52));

/// FNV-1a over the bytes of `v`.
template <typename T>
void Mix(uint64_t* h, const T& v) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ull;
  }
}

// The step order (out edges then in edges, ascending edge id) decides
// the enumeration sequence and the FPRAS rng stream. Pinned over the
// whole zoo, so a change of order shows up even where every set-valued
// oracle above still agrees. The digest was recorded from the original
// edge-list traversal.
TEST(CsrEquivalencePinned, StepOrderDigest) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t seed = 0; seed < 52; ++seed) {
    Rng rng(7000 + seed);
    LabeledGraph g = MakeGraph(seed, &rng);
    LabeledGraphView view(g);
    RegexPtr regex = RandomRegex(&rng, 3);
    Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
    ASSERT_TRUE(nfa.ok()) << nfa.status();
    for (const Path& p : PathEnumerator(*nfa, 3).Drain()) {
      for (NodeId v : p.nodes) Mix(&h, v);
      for (EdgeId e : p.edges) Mix(&h, e);
    }
    FprasOptions fopts;
    fopts.samples_per_state = 16;
    fopts.union_trials = 32;
    fopts.seed = 0xC0FFEE + seed;
    FprasPathCounter fpras(*nfa, 3, {}, fopts);
    Mix(&h, fpras.Estimate());
    Rng sample_rng(42 + seed);
    Result<Path> p = fpras.Sample(&sample_rng);
    if (p.ok()) {
      for (EdgeId e : p->edges) Mix(&h, e);
    }
  }
  EXPECT_EQ(h, 0xf9a675b9e732cf46ull) << std::hex << h;
}

// A snapshot of the wrong graph must be rejected at attach time rather
// than silently corrupting results.
TEST(CsrEquivalenceGuards, AttachRejectsMismatchedTopology) {
  Rng rng(1);
  LabeledGraph g = ErdosRenyi(8, 20, {"p"}, {"a", "b"}, &rng);
  LabeledGraph other = ErdosRenyi(9, 20, {"p"}, {"a", "b"}, &rng);
  LabeledGraphView view(g);
  CsrSnapshot wrong = CsrSnapshot::FromGraph(other);

  RegexPtr regex = Regex::Star(Regex::EdgeLabel("a"));
  Result<PathNfa> nfa = PathNfa::Compile(view, *regex);
  ASSERT_TRUE(nfa.ok());
  Status st = nfa->AttachSnapshot(&wrong);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(&nfa->snapshot(), &g.Csr()) << "a failed attach keeps the old";
  Result<PathNfa> rejected =
      PathNfa::Compile(view, *regex, PathNfa::Construction::kGlushkov, &wrong);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // nullptr re-attaches the graph's memoized snapshot.
  CsrSnapshot right = CsrSnapshot::FromGraph(g);
  ASSERT_TRUE(nfa->AttachSnapshot(&right).ok());
  ASSERT_EQ(&nfa->snapshot(), &right);
  ASSERT_TRUE(nfa->AttachSnapshot(nullptr).ok());
  ASSERT_EQ(&nfa->snapshot(), &g.Csr());
}

}  // namespace
}  // namespace kgq
