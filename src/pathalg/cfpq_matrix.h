#ifndef KGQ_PATHALG_CFPQ_MATRIX_H_
#define KGQ_PATHALG_CFPQ_MATRIX_H_

#include <cstdint>

#include "graph/csr_snapshot.h"
#include "pathalg/matrix_rpq.h"
#include "rpq/path_expr.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace kgq {

/// Context-free path queries on the matrix substrate: the pair relation
/// of a CNF-normalized grammar's nonterminal, computed as a semi-naive
/// least fixpoint over one BoolCsr relation per nonterminal.
///
/// Seeds: nullable nonterminals start at the identity diagonal (the
/// length-0 derivation), terminal productions at the per-label adjacency
/// matrices (BoolCsrForLabel, transposed for `^-`). Rounds then apply
///
///   * every binary production A → X Y as two masked delta products
///     (Δ[X] × R[Y]) \ R[A]  ∪  (R[X] × Δ[Y]) \ R[A]
///     — BoolSpGemmDelta, the incremental-closure kernel, so each round
///     touches only rows the previous round's new facts can still grow;
///   * every unit production A → B as Δ[B] \ R[A];
///
/// new facts are unioned into the relations and become the next round's
/// deltas; the fixpoint is reached when every delta is empty. The result
/// is canonical sorted CSR, schedule-independent, and bit-identical to
/// the naive CYK-style oracle (oracles/cfpq_reference.h) at any thread
/// count — the CFPQ differential gate.
///
/// obs: histogram cfpq.fixpoint_rounds (rounds to fixpoint per solve);
/// counter cfpq.spgemm.entries (new closure facts discovered across all
/// rounds — the relation growth the products paid for); the executor
/// wraps calls in the plan.op.cfpq span.
Result<BoolCsr> CfpqSolveMatrix(const CsrSnapshot& snap,
                                const CnfGrammar& grammar,
                                uint32_t nonterminal,
                                const ParallelOptions& par = {});

}  // namespace kgq

#endif  // KGQ_PATHALG_CFPQ_MATRIX_H_
