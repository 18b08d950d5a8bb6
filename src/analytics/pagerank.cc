#include "analytics/pagerank.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace kgq {

std::vector<double> PageRank(const Multigraph& g,
                             const PageRankOptions& opts) {
  KGQ_SPAN("analytics.pagerank");
  KGQ_COUNTER_INC("analytics.pagerank.runs");
  const CsrSnapshot& csr = g.Csr();
  size_t n = g.num_nodes();
  if (n == 0) return {};
  const ParallelOptions& par = opts.parallel;
  // Node-block size: fixed by n alone so reduction chunking (and hence
  // floating-point rounding) is independent of the thread count.
  size_t grain = std::max<size_t>(64, (n + 255) / 256);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  size_t iterations = 0;
  while (iterations < opts.max_iterations) {
    ++iterations;
    double dangling = ParallelReduce(
        0, n, grain, 0.0,
        [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (NodeId v = lo; v < hi; ++v) {
            if (csr.OutDegree(v) == 0) s += rank[v];
          }
          return s;
        },
        [](double a, double b) { return a + b; }, par);
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    // Pull form of the update: each node gathers over its in-edges, so
    // node blocks write disjoint slots of `next` and the per-node sum
    // order is fixed regardless of the schedule.
    ParallelFor(
        0, n, grain,
        [&](size_t lo, size_t hi) {
          for (NodeId v = lo; v < hi; ++v) {
            double sum = base;
            for (const CsrSnapshot::Entry& e : csr.In(v)) {
              sum += opts.damping * rank[e.neighbor] /
                     static_cast<double>(csr.OutDegree(e.neighbor));
            }
            next[v] = sum;
          }
        },
        par);
    double delta = ParallelReduce(
        0, n, grain, 0.0,
        [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (NodeId v = lo; v < hi; ++v) s += std::fabs(next[v] - rank[v]);
          return s;
        },
        [](double a, double b) { return a + b; }, par);
    rank.swap(next);
    if (delta < opts.tolerance) break;
  }
  // Iterations-to-convergence: the histogram aggregates across runs,
  // the gauge holds the most recent run.
  KGQ_HISTOGRAM_RECORD("analytics.pagerank.iterations", iterations);
  KGQ_GAUGE_SET("analytics.pagerank.last_iterations", iterations);
  return rank;
}

namespace {

/// Visit order of the Gauss–Seidel passes: the reverse postorder of an
/// iterative DFS over out-edges, roots taken in ascending id. On the
/// acyclic parts of the graph every node then follows all of its
/// in-neighbours, so a single pass carries rank along whole paths.
std::vector<NodeId> ReversePostorder(const CsrSnapshot& csr) {
  const size_t n = csr.num_nodes();
  std::vector<NodeId> post;
  post.reserve(n);
  std::vector<bool> seen(n, false);
  std::vector<std::pair<NodeId, size_t>> stack;  // (node, next out-entry)
  for (NodeId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const NodeId v = stack.back().first;
      const CsrSnapshot::Span out = csr.Out(v);
      size_t& next = stack.back().second;
      if (next == out.size()) {
        post.push_back(v);
        stack.pop_back();
        continue;
      }
      const NodeId w = out[next++].neighbor;
      if (!seen[w]) {
        seen[w] = true;
        stack.emplace_back(w, 0);
      }
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

}  // namespace

PageRankFixpoint PageRankLeastFixpoint(const CsrSnapshot& csr) {
  KGQ_SPAN("analytics.pagerank.fixpoint");
  PageRankFixpoint r;
  const size_t n = csr.num_nodes();
  r.rank.assign(n, 0);
  if (n == 0) return r;
  // 64-bit arithmetic suffices: every x stays below the lfp, whose
  // entries sum to at most S = kPageRankScale = 2^40 (F maps
  // {sum x <= S} into itself: sum F(x) <= 0.15 S + 0.85 sum x), so each
  // product 85 * x[u] and 85 * dangling is below 2^47.
  const int64_t n100 = 100 * static_cast<int64_t>(n);
  const int64_t teleport = 15 * kPageRankScale / n100;
  std::vector<int64_t>& x = r.rank;
  // contrib[u] = floor(85 x[u] / (100 outdeg u)), refreshed when x[u]
  // rises; dangling = sum of x over nodes without out-edges.
  std::vector<int64_t> contrib(n, 0);
  int64_t dangling = 0;
  int64_t dangling_term = 0;  // floor(85 * dangling / (100 n))
  const std::vector<NodeId> order = ReversePostorder(csr);
  for (bool changed = true; changed;) {
    changed = false;
    ++r.iterations;
    for (NodeId v : order) {
      int64_t f = teleport + dangling_term;
      for (const CsrSnapshot::Entry& e : csr.In(v)) f += contrib[e.neighbor];
      if (f <= x[v]) continue;
      changed = true;
      const int64_t deg = static_cast<int64_t>(csr.OutDegree(v));
      if (deg == 0) {
        dangling += f - x[v];
        dangling_term = 85 * dangling / n100;
      } else {
        contrib[v] = 85 * f / (100 * deg);
      }
      x[v] = f;
    }
  }
  KGQ_HISTOGRAM_RECORD("pagerank.fixpoint_passes", r.iterations);
  return r;
}

HitsScores Hits(const Multigraph& g, size_t iterations) {
  const CsrSnapshot& csr = g.Csr();
  size_t n = g.num_nodes();
  HitsScores out;
  out.hub.assign(n, 1.0);
  out.authority.assign(n, 1.0);
  if (n == 0) return out;

  auto normalize = [](std::vector<double>& v) {
    double norm = 0.0;
    for (double x : v) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) return;
    for (double& x : v) x /= norm;
  };

  for (size_t iter = 0; iter < iterations; ++iter) {
    // authority(v) = Σ hub(u) over edges u→v.
    for (NodeId v = 0; v < n; ++v) {
      double score = 0.0;
      for (const CsrSnapshot::Entry& e : csr.In(v)) {
        score += out.hub[e.neighbor];
      }
      out.authority[v] = score;
    }
    normalize(out.authority);
    // hub(v) = Σ authority(w) over edges v→w.
    for (NodeId v = 0; v < n; ++v) {
      double score = 0.0;
      for (const CsrSnapshot::Entry& e : csr.Out(v)) {
        score += out.authority[e.neighbor];
      }
      out.hub[v] = score;
    }
    normalize(out.hub);
  }
  return out;
}

}  // namespace kgq
