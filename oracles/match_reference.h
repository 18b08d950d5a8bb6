#ifndef KGQ_ORACLES_MATCH_REFERENCE_H_
#define KGQ_ORACLES_MATCH_REFERENCE_H_

#include "graph/graph_view.h"
#include "query/match_query.h"
#include "util/result.h"

namespace kgq {

/// Reference evaluator of MATCH: joins the chain hop by hop in textual
/// order with per-hop AllPairs relations (context-free hops via the
/// naive CfpqReferenceRelation). The oracle the planned path,
/// ExecuteMatchPlanned, is differentially tested against
/// (tests/test_plan_differential.cc). Beware: the full solution set is
/// materialized before projection; chains with huge joins cost memory.
Result<QueryResult> ExecuteMatch(const GraphView& view,
                                 const MatchQuery& query);

}  // namespace kgq

#endif  // KGQ_ORACLES_MATCH_REFERENCE_H_
