#ifndef KGQ_GRAPH_GRAPH_VIEW_H_
#define KGQ_GRAPH_GRAPH_VIEW_H_

#include <optional>
#include <string_view>

#include "graph/labeled_graph.h"
#include "graph/multigraph.h"
#include "graph/property_graph.h"
#include "graph/vector_graph.h"

namespace kgq {

/// Model-independent read interface consumed by the query machinery.
///
/// The paper defines regular expressions once and instantiates their
/// semantics over labeled graphs, property graphs and vector-labeled
/// graphs; GraphView is the code counterpart. Each predicate answers one
/// atomic test from Section 4:
///   - NodeLabelIs / EdgeLabelIs       — the ℓ atoms,
///   - NodePropertyIs / EdgePropertyIs — the (p = v) atoms,
///   - NodeFeatureIs / EdgeFeatureIs   — the (f_i = v) atoms.
/// Atoms that do not exist in a model are uniformly false there (e.g.
/// property atoms over a plain labeled graph), mirroring the paper's
/// per-model test grammars.
class GraphView {
 public:
  virtual ~GraphView() = default;

  /// The underlying multigraph (N, E, ρ).
  virtual const Multigraph& topology() const = 0;

  /// The model's memoized CsrSnapshot (built on first use): the
  /// adjacency the kernels read when the caller passes none. Its edge
  /// labels are the view's label atoms: for every edge e and spelling l
  /// with ResolveLabel(l) = id, EdgeHasLabel(e, id) holds iff
  /// Csr().EdgeLabel(e) == Csr().FindLabel(l). The one exception is a
  /// vector graph's ⊥ (no value) in feature row 0, which the snapshot
  /// spells "⊥" and no label atom matches.
  virtual const CsrSnapshot& Csr() const = 0;

  /// Label atoms in two steps, so that code testing one label against
  /// many nodes or edges looks the spelling up once: ResolveLabel finds
  /// `label` in the view's dictionary (nullopt: nothing can carry it),
  /// and NodeHasLabel / EdgeHasLabel then compare ids only.
  virtual std::optional<ConstId> ResolveLabel(std::string_view label) const = 0;
  virtual bool NodeHasLabel(NodeId n, ConstId label) const = 0;
  virtual bool EdgeHasLabel(EdgeId e, ConstId label) const = 0;

  /// One-shot label atoms: ResolveLabel + NodeHasLabel / EdgeHasLabel.
  bool NodeLabelIs(NodeId n, std::string_view label) const {
    std::optional<ConstId> id = ResolveLabel(label);
    return id.has_value() && NodeHasLabel(n, *id);
  }
  bool EdgeLabelIs(EdgeId e, std::string_view label) const {
    std::optional<ConstId> id = ResolveLabel(label);
    return id.has_value() && EdgeHasLabel(e, *id);
  }

  virtual bool NodePropertyIs(NodeId n, std::string_view name,
                              std::string_view value) const;
  virtual bool EdgePropertyIs(EdgeId e, std::string_view name,
                              std::string_view value) const;

  virtual bool NodeFeatureIs(NodeId n, size_t feature,
                             std::string_view value) const;
  virtual bool EdgeFeatureIs(EdgeId e, size_t feature,
                             std::string_view value) const;

  size_t num_nodes() const { return topology().num_nodes(); }
  size_t num_edges() const { return topology().num_edges(); }
};

/// View over a labeled graph: label atoms only.
class LabeledGraphView final : public GraphView {
 public:
  /// The graph must outlive the view.
  explicit LabeledGraphView(const LabeledGraph& graph) : graph_(graph) {}

  const Multigraph& topology() const override { return graph_.topology(); }
  const CsrSnapshot& Csr() const override { return graph_.Csr(); }
  std::optional<ConstId> ResolveLabel(std::string_view label) const override;
  bool NodeHasLabel(NodeId n, ConstId label) const override;
  bool EdgeHasLabel(EdgeId e, ConstId label) const override;

  const LabeledGraph& graph() const { return graph_; }

 private:
  const LabeledGraph& graph_;
};

/// View over a property graph: label and property atoms.
class PropertyGraphView final : public GraphView {
 public:
  /// The graph must outlive the view.
  explicit PropertyGraphView(const PropertyGraph& graph) : graph_(graph) {}

  const Multigraph& topology() const override {
    return graph_.labeled().topology();
  }
  const CsrSnapshot& Csr() const override { return graph_.Csr(); }
  std::optional<ConstId> ResolveLabel(std::string_view label) const override;
  bool NodeHasLabel(NodeId n, ConstId label) const override;
  bool EdgeHasLabel(EdgeId e, ConstId label) const override;
  bool NodePropertyIs(NodeId n, std::string_view name,
                      std::string_view value) const override;
  bool EdgePropertyIs(EdgeId e, std::string_view name,
                      std::string_view value) const override;

  const PropertyGraph& graph() const { return graph_; }

 private:
  const PropertyGraph& graph_;
};

/// View over a vector-labeled graph: feature atoms. As a convenience —
/// and consistently with the Figure 2(b)→(c) conversion, which stores the
/// label in feature row 0 — label atoms are answered by feature row 0.
class VectorGraphView final : public GraphView {
 public:
  /// The graph must outlive the view.
  explicit VectorGraphView(const VectorGraph& graph) : graph_(graph) {}

  const Multigraph& topology() const override { return graph_.topology(); }
  const CsrSnapshot& Csr() const override { return graph_.Csr(); }
  std::optional<ConstId> ResolveLabel(std::string_view label) const override;
  bool NodeHasLabel(NodeId n, ConstId label) const override;
  bool EdgeHasLabel(EdgeId e, ConstId label) const override;
  bool NodeFeatureIs(NodeId n, size_t feature,
                     std::string_view value) const override;
  bool EdgeFeatureIs(EdgeId e, size_t feature,
                     std::string_view value) const override;

  const VectorGraph& graph() const { return graph_; }

 private:
  const VectorGraph& graph_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_GRAPH_VIEW_H_
