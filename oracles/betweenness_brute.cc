#include "oracles/betweenness_brute.h"

#include <algorithm>

#include "rpq/path.h"
#include "rpq/reference_eval.h"

namespace kgq {

std::vector<double> BruteForceBc(const Multigraph& g, EdgeDirection dir) {
  size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    auto fwd = CountShortestPaths(g, a, dir);
    for (NodeId b = 0; b < n; ++b) {
      if (b == a || fwd.dist[b] == kUnreachable || fwd.dist[b] == 0) continue;
      for (NodeId x = 0; x < n; ++x) {
        if (x == a || x == b) continue;
        // Directed graphs need distances *to* b, so count from x.
        auto from_x = CountShortestPaths(g, x, dir);
        if (fwd.dist[x] == kUnreachable || from_x.dist[b] == kUnreachable) {
          continue;
        }
        if (fwd.dist[x] + from_x.dist[b] != fwd.dist[b]) continue;
        bc[x] += fwd.count[x] * from_x.count[b] / fwd.count[b];
      }
    }
  }
  return bc;
}

std::vector<double> BruteForceBcr(const GraphView& view, const Regex& r,
                                  size_t max_len) {
  size_t n = view.num_nodes();
  std::vector<Path> all = EvalReference(view, r, max_len);
  std::vector<double> bc(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (b == a) continue;
      // Shortest conforming a→b paths.
      size_t best = max_len + 1;
      for (const Path& p : all) {
        if (p.Start() == a && p.End() == b) best = std::min(best, p.Length());
      }
      if (best == 0 || best > max_len) continue;
      std::vector<const Path*> shortest;
      for (const Path& p : all) {
        if (p.Start() == a && p.End() == b && p.Length() == best) {
          shortest.push_back(&p);
        }
      }
      for (NodeId x = 0; x < n; ++x) {
        if (x == a || x == b) continue;
        double through = 0.0;
        for (const Path* p : shortest) {
          if (p->Contains(x)) through += 1.0;
        }
        bc[x] += through / static_cast<double>(shortest.size());
      }
    }
  }
  return bc;
}

}  // namespace kgq
