#ifndef KGQ_ORACLES_CFPQ_REFERENCE_H_
#define KGQ_ORACLES_CFPQ_REFERENCE_H_

#include <vector>

#include "graph/graph_view.h"
#include "rpq/path_expr.h"
#include "util/bitset.h"
#include "util/result.h"

namespace kgq {

/// Naive CYK-style reference evaluator for context-free path queries —
/// the ground truth of the CFPQ differential suite.
///
/// One Bitset row per node per nonterminal; productions are re-applied
/// over the *entire* current relations every round until nothing
/// changes (naive bottom-up fixpoint, no deltas, no matrices, no
/// parallelism). Terminal relations are built by scanning the
/// GraphView's edge list directly — a code path deliberately disjoint
/// from the matrix engine's per-label CSR partitions, so the
/// differential gate compares genuinely independent implementations.
///
/// Returns the pair relation of `nonterminal`: result[u].Test(v) iff
/// some u→v path derives from it. Deterministic, sequential.
Result<std::vector<Bitset>> CfpqReferenceRelation(const GraphView& view,
                                                  const CnfGrammar& grammar,
                                                  uint32_t nonterminal);

}  // namespace kgq

#endif  // KGQ_ORACLES_CFPQ_REFERENCE_H_
