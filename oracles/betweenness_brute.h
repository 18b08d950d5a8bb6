#ifndef KGQ_ORACLES_BETWEENNESS_BRUTE_H_
#define KGQ_ORACLES_BETWEENNESS_BRUTE_H_

#include <vector>

#include "analytics/shortest_paths.h"
#include "graph/graph_view.h"
#include "graph/multigraph.h"
#include "rpq/regex.h"

namespace kgq {

/// Classical betweenness straight from the definition: for every pair
/// (a, b) and interior node x, σ_ab(x) = σ_ax · σ_xb when
/// d(a,x) + d(x,b) = d(a,b), with shortest-path counts from
/// CountShortestPaths over the graph's edge lists. O(n³) BFS runs; the
/// reference for BetweennessCentrality.
std::vector<double> BruteForceBc(const Multigraph& g, EdgeDirection dir);

/// Regex-constrained betweenness bc_r straight from the Section 4.2
/// definition, over the path sets of the reference evaluator
/// (EvalReference, paths of length ≤ max_len): the reference for
/// RegexBetweenness with BcrOptions::max_path_length = max_len.
std::vector<double> BruteForceBcr(const GraphView& view, const Regex& r,
                                  size_t max_len);

}  // namespace kgq

#endif  // KGQ_ORACLES_BETWEENNESS_BRUTE_H_
