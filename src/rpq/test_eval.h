#ifndef KGQ_RPQ_TEST_EVAL_H_
#define KGQ_RPQ_TEST_EVAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph_view.h"
#include "rpq/test_expr.h"
#include "util/bitset.h"

namespace kgq {

/// True iff node `n` of `view` satisfies `test` (Section 4 semantics;
/// atoms not supported by the model are false).
bool EvalNodeTest(const GraphView& view, const TestExpr& test, NodeId n);

/// True iff edge `e` of `view` satisfies `test`.
bool EvalEdgeTest(const GraphView& view, const TestExpr& test, EdgeId e);

/// `test` prepared for many evaluations against one view: its label
/// atoms are resolved once (GraphView::ResolveLabel), so each
/// evaluation compares ids instead of looking the spelling up again.
/// Property and feature atoms are still answered by the view per call.
/// Results equal EvalNodeTest / EvalEdgeTest. The view and the test
/// must outlive it.
class ResolvedTest {
 public:
  ResolvedTest(const GraphView& view, const TestExpr& test);

  bool MatchesNode(NodeId n) const { return Eval(0, n, /*node=*/true); }
  bool MatchesEdge(EdgeId e) const { return Eval(0, e, /*node=*/false); }

 private:
  // The test tree in pre-order; nodes_[0] is the root.
  struct Node {
    const TestExpr* expr;
    std::optional<ConstId> label;  // kLabel: the resolved id.
    uint32_t lhs = 0;
    uint32_t rhs = 0;
  };

  uint32_t Add(const TestExpr& t);
  bool Eval(uint32_t i, uint32_t id, bool node) const;

  const GraphView& view_;
  std::vector<Node> nodes_;
};

/// Bitset over all nodes of `view` satisfying `test`. Query compilation
/// precomputes these once per distinct atom so that the path algorithms
/// never re-evaluate test ASTs in inner loops. Label atoms are resolved
/// once per call (ResolvedTest).
Bitset MatchNodes(const GraphView& view, const TestExpr& test);

/// Bitset over all edges of `view` satisfying `test`.
Bitset MatchEdges(const GraphView& view, const TestExpr& test);

}  // namespace kgq

#endif  // KGQ_RPQ_TEST_EVAL_H_
