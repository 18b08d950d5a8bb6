#ifndef KGQ_ORACLES_PAGERANK_JACOBI_H_
#define KGQ_ORACLES_PAGERANK_JACOBI_H_

#include "analytics/pagerank.h"
#include "graph/csr_snapshot.h"

namespace kgq {

/// Reference for PageRankLeastFixpoint: plain Kleene (Jacobi) iteration
/// of the same floor-rounded map F from x = 0, every sweep computing
/// F(x) in full from the previous vector with 128-bit intermediates,
/// until F(x) == x. Sequential and deliberately naive: no per-source
/// cache, no incremental dangling sum, no visit order.
/// `iterations` counts sweeps, the last of which changed nothing.
PageRankFixpoint JacobiPageRankFixpoint(const CsrSnapshot& csr);

}  // namespace kgq

#endif  // KGQ_ORACLES_PAGERANK_JACOBI_H_
