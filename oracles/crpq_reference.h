#ifndef KGQ_ORACLES_CRPQ_REFERENCE_H_
#define KGQ_ORACLES_CRPQ_REFERENCE_H_

#include "graph/graph_view.h"
#include "plan/exec.h"
#include "rpq/crpq.h"
#include "util/result.h"

namespace kgq {

/// Reference oracle: per-atom pair relations (regular atoms via
/// AllPairs with endpoint tests folded into the regex; context-free
/// atoms via the naive CYK-style CfpqReferenceRelation with endpoint
/// tests masked onto the relation), nested-loop joined by DFS in
/// textual order, test-only variables extended by node scans, then the
/// canonical sort/dedup/limit. Sequential, no planner — the ground
/// truth tests/test_plan_differential.cc and
/// tests/test_cfpq_differential.cc check EvalCrpq against.
Result<RowSet> EvalCrpqReference(const GraphView& view, const Crpq& q);

}  // namespace kgq

#endif  // KGQ_ORACLES_CRPQ_REFERENCE_H_
