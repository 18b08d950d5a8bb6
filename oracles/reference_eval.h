#ifndef KGQ_ORACLES_REFERENCE_EVAL_H_
#define KGQ_ORACLES_REFERENCE_EVAL_H_

#include <vector>

#include "graph/graph_view.h"
#include "rpq/path.h"
#include "rpq/regex.h"

namespace kgq {

/// Literal implementation of the paper's evaluation equations for
/// ⟦r⟧_L / ⟦r⟧_P / ⟦r⟧_V (Section 4): each operator is computed exactly as
/// written — atoms produce their path sets, `/` joins on end/start nodes,
/// `+` unions, `*` iterates to a fixpoint.
///
/// Path sets are restricted to |p| ≤ max_length so evaluation terminates
/// (the full sets are infinite in cyclic graphs and exponential even in
/// DAGs — the observation that motivates Section 4.1). The result is
/// sorted and duplicate-free.
///
/// This is the semantic *oracle*: exponential-time and -space, used by
/// tests and the benchmark harness to validate the product-automaton
/// algorithms on small instances. Production code paths should use
/// pathalg/ instead.
std::vector<Path> EvalReference(const GraphView& view, const Regex& regex,
                                size_t max_length);

/// As EvalReference, but keeps only paths with |p| == exactly `length`.
std::vector<Path> EvalReferenceExact(const GraphView& view,
                                     const Regex& regex, size_t length);

}  // namespace kgq

#endif  // KGQ_ORACLES_REFERENCE_EVAL_H_
