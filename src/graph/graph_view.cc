#include "graph/graph_view.h"

namespace kgq {
namespace {

/// True if `id` is interned in `dict` as exactly the string `s`.
bool IdMatches(const Interner& dict, ConstId id, std::string_view s) {
  if (id == kNullConst) return false;
  std::optional<ConstId> want = dict.Find(s);
  return want.has_value() && *want == id;
}

}  // namespace

bool GraphView::NodePropertyIs(NodeId, std::string_view,
                               std::string_view) const {
  return false;
}
bool GraphView::EdgePropertyIs(EdgeId, std::string_view,
                               std::string_view) const {
  return false;
}
bool GraphView::NodeFeatureIs(NodeId, size_t, std::string_view) const {
  return false;
}
bool GraphView::EdgeFeatureIs(EdgeId, size_t, std::string_view) const {
  return false;
}

std::optional<ConstId> LabeledGraphView::ResolveLabel(
    std::string_view label) const {
  return graph_.dict().Find(label);
}
bool LabeledGraphView::NodeHasLabel(NodeId n, ConstId label) const {
  return graph_.NodeLabel(n) == label;
}
bool LabeledGraphView::EdgeHasLabel(EdgeId e, ConstId label) const {
  return graph_.EdgeLabel(e) == label;
}

std::optional<ConstId> PropertyGraphView::ResolveLabel(
    std::string_view label) const {
  return graph_.dict().Find(label);
}
bool PropertyGraphView::NodeHasLabel(NodeId n, ConstId label) const {
  return graph_.NodeLabel(n) == label;
}
bool PropertyGraphView::EdgeHasLabel(EdgeId e, ConstId label) const {
  return graph_.EdgeLabel(e) == label;
}
bool PropertyGraphView::NodePropertyIs(NodeId n, std::string_view name,
                                       std::string_view value) const {
  std::optional<ConstId> name_id = graph_.dict().Find(name);
  if (!name_id.has_value()) return false;
  std::optional<ConstId> actual = graph_.NodeProperty(n, *name_id);
  return actual.has_value() && IdMatches(graph_.dict(), *actual, value);
}
bool PropertyGraphView::EdgePropertyIs(EdgeId e, std::string_view name,
                                       std::string_view value) const {
  std::optional<ConstId> name_id = graph_.dict().Find(name);
  if (!name_id.has_value()) return false;
  std::optional<ConstId> actual = graph_.EdgeProperty(e, *name_id);
  return actual.has_value() && IdMatches(graph_.dict(), *actual, value);
}

std::optional<ConstId> VectorGraphView::ResolveLabel(
    std::string_view label) const {
  return graph_.dict().Find(label);
}
bool VectorGraphView::NodeHasLabel(NodeId n, ConstId label) const {
  return graph_.dimension() > 0 && graph_.NodeFeature(n, 0) == label;
}
bool VectorGraphView::EdgeHasLabel(EdgeId e, ConstId label) const {
  return graph_.dimension() > 0 && graph_.EdgeFeature(e, 0) == label;
}
bool VectorGraphView::NodeFeatureIs(NodeId n, size_t feature,
                                    std::string_view value) const {
  if (feature >= graph_.dimension()) return false;
  return IdMatches(graph_.dict(), graph_.NodeFeature(n, feature), value);
}
bool VectorGraphView::EdgeFeatureIs(EdgeId e, size_t feature,
                                    std::string_view value) const {
  if (feature >= graph_.dimension()) return false;
  return IdMatches(graph_.dict(), graph_.EdgeFeature(e, feature), value);
}

}  // namespace kgq
