#ifndef KGQ_ANALYTICS_PAGERANK_H_
#define KGQ_ANALYTICS_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/multigraph.h"
#include "util/thread_pool.h"

namespace kgq {

/// Parameters of the power iteration.
struct PageRankOptions {
  double damping = 0.85;
  size_t max_iterations = 100;
  double tolerance = 1e-10;  ///< L1 change threshold for early stop.
  /// Thread budget for the block-parallel iterations. Each iteration
  /// pulls over in-edges (race-free) and reduces the dangling mass and
  /// the L1 delta with a deterministic tree, so results are identical
  /// for every thread count.
  ParallelOptions parallel;
};

/// PageRank by power iteration with uniform teleport; dangling mass is
/// redistributed uniformly. Scores sum to 1.
std::vector<double> PageRank(const Multigraph& g,
                             const PageRankOptions& opts = {});

/// Fixed-point scale of the integer PageRank lattice: ranks are
/// integers in units of 2^-40 of the total probability mass.
inline constexpr int64_t kPageRankScale = int64_t{1} << 40;

/// Result of the integer fixed-point PageRank (the serving layer's
/// epoch-deterministic variant).
struct PageRankFixpoint {
  /// The least fixpoint of the floor-rounded update, at kPageRankScale.
  /// A canonical value: it depends only on the graph, not on the start
  /// vector, visit order or iteration schedule.
  std::vector<int64_t> rank;
  size_t iterations = 0;  ///< passes, the last of which changed nothing
};

/// Integer PageRank as a monotone lattice map F on rank vectors:
///
///   F(x)[v] = floor(15*S/(100n)) + floor(85*dangling(x)/(100n))
///           + sum over in-edges (u,v) of floor(85*x[u] / (100*outdeg(u)))
///
/// with S = kPageRankScale and dangling(x) the rank held by nodes
/// without out-edges (parallel edges and self-loops count per edge).
///
/// Solver: an in-place Gauss–Seidel ascent on one thread. Nodes are
/// visited in the reverse postorder of a DFS over out-edges (roots in
/// ascending id); each visit sets x[v] := max(x[v], F(x)[v]) with the
/// current x, and passes repeat until one changes nothing. The
/// per-source terms and the dangling sum are kept up to date as x
/// rises, so a visit costs one add per in-edge.
///
/// Why this is the least fixpoint, bit for bit: F is monotone and x
/// starts at 0, so every update keeps x <= lfp(F). A pass without a
/// change means F(x) <= x, and by Knaster–Tarski lfp(F) <= x. Hence
/// x = lfp(F) for any visit order, the same value a Jacobi (Kleene)
/// iteration from 0 reaches.
PageRankFixpoint PageRankLeastFixpoint(const CsrSnapshot& csr);

/// Hub and authority scores (Kleinberg's HITS), L2-normalized.
struct HitsScores {
  std::vector<double> hub;
  std::vector<double> authority;
};
HitsScores Hits(const Multigraph& g, size_t iterations = 50);

}  // namespace kgq

#endif  // KGQ_ANALYTICS_PAGERANK_H_
