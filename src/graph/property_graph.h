#ifndef KGQ_GRAPH_PROPERTY_GRAPH_H_
#define KGQ_GRAPH_PROPERTY_GRAPH_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"

namespace kgq {

/// A set of (property name → value) pairs attached to one node or edge.
/// Stored as a name-sorted vector: objects typically carry very few
/// properties, so sorted-vector lookup beats hashing in both space and
/// time (and gives deterministic iteration order).
class PropertySet {
 public:
  /// Sets `name` to `value`, overwriting an existing binding.
  void Set(ConstId name, ConstId value);

  /// Value of `name`, or nullopt (σ is a partial function).
  std::optional<ConstId> Get(ConstId name) const;

  /// All bindings, sorted by property name id.
  const std::vector<std::pair<ConstId, ConstId>>& entries() const {
    return entries_;
  }

  size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<ConstId, ConstId>> entries_;
};

/// A property graph P = (N, E, ρ, λ, σ): a labeled graph whose nodes and
/// edges additionally carry values for finitely many properties
/// (Section 3, Figure 2(b)). σ is the partial function realized by the
/// per-object PropertySet.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  /// Adds a node labeled `label`.
  NodeId AddNode(std::string_view label);

  /// Adds an edge labeled `label`.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, std::string_view label);

  /// σ(n, name) := value.
  void SetNodeProperty(NodeId n, std::string_view name,
                       std::string_view value);
  /// σ(e, name) := value.
  void SetEdgeProperty(EdgeId e, std::string_view name,
                       std::string_view value);

  /// σ(n, name), or nullopt when undefined.
  std::optional<ConstId> NodeProperty(NodeId n, ConstId name) const {
    return node_props_[n].Get(name);
  }
  std::optional<ConstId> EdgeProperty(EdgeId e, ConstId name) const {
    return edge_props_[e].Get(name);
  }

  /// String-keyed lookup convenience (returns nullopt when either the
  /// name has never been interned or the property is unset).
  std::optional<std::string> NodePropertyString(NodeId n,
                                                std::string_view name) const;
  std::optional<std::string> EdgePropertyString(EdgeId e,
                                                std::string_view name) const;

  /// All properties of one node / edge.
  const PropertySet& NodeProperties(NodeId n) const { return node_props_[n]; }
  const PropertySet& EdgeProperties(EdgeId e) const { return edge_props_[e]; }

  // Labeled-graph facade.
  size_t num_nodes() const { return base_.num_nodes(); }
  size_t num_edges() const { return base_.num_edges(); }
  bool HasNode(NodeId n) const { return base_.HasNode(n); }
  bool HasEdge(EdgeId e) const { return base_.HasEdge(e); }
  NodeId EdgeSource(EdgeId e) const { return base_.EdgeSource(e); }
  NodeId EdgeTarget(EdgeId e) const { return base_.EdgeTarget(e); }
  const std::vector<EdgeId>& OutEdges(NodeId n) const {
    return base_.OutEdges(n);
  }
  const std::vector<EdgeId>& InEdges(NodeId n) const {
    return base_.InEdges(n);
  }
  ConstId NodeLabel(NodeId n) const { return base_.NodeLabel(n); }
  ConstId EdgeLabel(EdgeId e) const { return base_.EdgeLabel(e); }
  const std::string& NodeLabelString(NodeId n) const {
    return base_.NodeLabelString(n);
  }
  const std::string& EdgeLabelString(EdgeId e) const {
    return base_.EdgeLabelString(e);
  }

  /// The labeled graph (N, E, ρ, λ) underlying this property graph.
  const LabeledGraph& labeled() const { return base_; }

  /// The labeled graph's memoized snapshot: properties are not part of
  /// the adjacency.
  const CsrSnapshot& Csr() const { return base_.Csr(); }

  Interner& dict() { return base_.dict(); }
  const Interner& dict() const { return base_.dict(); }

 private:
  LabeledGraph base_;
  std::vector<PropertySet> node_props_;
  std::vector<PropertySet> edge_props_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_PROPERTY_GRAPH_H_
