#include "oracles/pagerank_jacobi.h"

#include <cstdint>
#include <vector>

namespace kgq {

PageRankFixpoint JacobiPageRankFixpoint(const CsrSnapshot& csr) {
  PageRankFixpoint r;
  const size_t n = csr.num_nodes();
  r.rank.assign(n, 0);
  if (n == 0) return r;
  const __int128 n100 = 100 * static_cast<__int128>(n);
  std::vector<int64_t> next(n);
  for (;;) {
    ++r.iterations;
    __int128 dangling = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (csr.OutDegree(v) == 0) dangling += r.rank[v];
    }
    const __int128 base =
        15 * static_cast<__int128>(kPageRankScale) / n100 +
        85 * dangling / n100;
    for (NodeId v = 0; v < n; ++v) {
      __int128 sum = base;
      for (const CsrSnapshot::Entry& e : csr.In(v)) {
        sum += 85 * static_cast<__int128>(r.rank[e.neighbor]) /
               (100 * static_cast<__int128>(csr.OutDegree(e.neighbor)));
      }
      next[v] = static_cast<int64_t>(sum);
    }
    if (next == r.rank) return r;
    r.rank.swap(next);
  }
}

}  // namespace kgq
