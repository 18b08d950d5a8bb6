#include "rpq/test_eval.h"

#include <cassert>

namespace kgq {

bool EvalNodeTest(const GraphView& view, const TestExpr& test, NodeId n) {
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      return view.NodeLabelIs(n, test.label());
    case TestExpr::Kind::kPropEq:
      return view.NodePropertyIs(n, test.prop_name(), test.value());
    case TestExpr::Kind::kFeatEq:
      return view.NodeFeatureIs(n, test.feature(), test.value());
    case TestExpr::Kind::kNot:
      return !EvalNodeTest(view, *test.lhs(), n);
    case TestExpr::Kind::kAnd:
      return EvalNodeTest(view, *test.lhs(), n) &&
             EvalNodeTest(view, *test.rhs(), n);
    case TestExpr::Kind::kOr:
      return EvalNodeTest(view, *test.lhs(), n) ||
             EvalNodeTest(view, *test.rhs(), n);
    case TestExpr::Kind::kTrue:
      return true;
  }
  assert(false);
  return false;
}

bool EvalEdgeTest(const GraphView& view, const TestExpr& test, EdgeId e) {
  switch (test.kind()) {
    case TestExpr::Kind::kLabel:
      return view.EdgeLabelIs(e, test.label());
    case TestExpr::Kind::kPropEq:
      return view.EdgePropertyIs(e, test.prop_name(), test.value());
    case TestExpr::Kind::kFeatEq:
      return view.EdgeFeatureIs(e, test.feature(), test.value());
    case TestExpr::Kind::kNot:
      return !EvalEdgeTest(view, *test.lhs(), e);
    case TestExpr::Kind::kAnd:
      return EvalEdgeTest(view, *test.lhs(), e) &&
             EvalEdgeTest(view, *test.rhs(), e);
    case TestExpr::Kind::kOr:
      return EvalEdgeTest(view, *test.lhs(), e) ||
             EvalEdgeTest(view, *test.rhs(), e);
    case TestExpr::Kind::kTrue:
      return true;
  }
  assert(false);
  return false;
}

ResolvedTest::ResolvedTest(const GraphView& view, const TestExpr& test)
    : view_(view) {
  Add(test);
}

uint32_t ResolvedTest::Add(const TestExpr& t) {
  const uint32_t i = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back({&t, std::nullopt});
  if (t.kind() == TestExpr::Kind::kLabel) {
    nodes_[i].label = view_.ResolveLabel(t.label());
  }
  if (t.lhs() != nullptr) {
    const uint32_t lhs = Add(*t.lhs());
    nodes_[i].lhs = lhs;
  }
  if (t.rhs() != nullptr) {
    const uint32_t rhs = Add(*t.rhs());
    nodes_[i].rhs = rhs;
  }
  return i;
}

bool ResolvedTest::Eval(uint32_t i, uint32_t id, bool node) const {
  const Node& x = nodes_[i];
  const TestExpr& t = *x.expr;
  switch (t.kind()) {
    case TestExpr::Kind::kLabel:
      if (!x.label.has_value()) return false;
      return node ? view_.NodeHasLabel(id, *x.label)
                  : view_.EdgeHasLabel(id, *x.label);
    case TestExpr::Kind::kPropEq:
      return node ? view_.NodePropertyIs(id, t.prop_name(), t.value())
                  : view_.EdgePropertyIs(id, t.prop_name(), t.value());
    case TestExpr::Kind::kFeatEq:
      return node ? view_.NodeFeatureIs(id, t.feature(), t.value())
                  : view_.EdgeFeatureIs(id, t.feature(), t.value());
    case TestExpr::Kind::kNot:
      return !Eval(x.lhs, id, node);
    case TestExpr::Kind::kAnd:
      return Eval(x.lhs, id, node) && Eval(x.rhs, id, node);
    case TestExpr::Kind::kOr:
      return Eval(x.lhs, id, node) || Eval(x.rhs, id, node);
    case TestExpr::Kind::kTrue:
      return true;
  }
  assert(false);
  return false;
}

Bitset MatchNodes(const GraphView& view, const TestExpr& test) {
  ResolvedTest resolved(view, test);
  Bitset out(view.num_nodes());
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    if (resolved.MatchesNode(n)) out.Set(n);
  }
  return out;
}

Bitset MatchEdges(const GraphView& view, const TestExpr& test) {
  ResolvedTest resolved(view, test);
  Bitset out(view.num_edges());
  for (EdgeId e = 0; e < view.num_edges(); ++e) {
    if (resolved.MatchesEdge(e)) out.Set(e);
  }
  return out;
}

}  // namespace kgq
