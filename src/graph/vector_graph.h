#ifndef KGQ_GRAPH_VECTOR_GRAPH_H_
#define KGQ_GRAPH_VECTOR_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_memo.h"
#include "graph/multigraph.h"
#include "util/interner.h"
#include "util/result.h"

namespace kgq {

/// A vector-labeled graph V = (N, E, ρ, λ) of dimension d: λ assigns to
/// every node and edge a vector of d values from Const (Section 3,
/// Figure 2(c)). The paper's ⊥ ("no value in this row") is kNullConst.
///
/// This model unifies labels and properties and is the input format of
/// message-passing algorithms: the 1-WL test and the GNN layers consume a
/// VectorGraph (gnn/ additionally maps Const features to numeric ones).
class VectorGraph {
 public:
  /// Creates an empty graph whose feature vectors have `dimension` rows.
  /// `dimension` must be >= 1.
  explicit VectorGraph(size_t dimension);

  size_t dimension() const { return dimension_; }

  /// Adds a node with the given feature vector (must have size d; use
  /// kNullConst for ⊥ rows). Fails on dimension mismatch.
  Result<NodeId> AddNode(std::vector<ConstId> features);

  /// Adds a node whose features are interned from strings; "⊥" entries
  /// can be passed as empty strings.
  Result<NodeId> AddNodeFromStrings(
      const std::vector<std::string_view>& features);

  /// Adds an edge with the given feature vector.
  Result<EdgeId> AddEdge(NodeId from, NodeId to,
                         std::vector<ConstId> features);

  /// Adds an edge whose features are interned from strings.
  Result<EdgeId> AddEdgeFromStrings(
      NodeId from, NodeId to, const std::vector<std::string_view>& features);

  size_t num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }
  bool HasNode(NodeId n) const { return graph_.HasNode(n); }
  bool HasEdge(EdgeId e) const { return graph_.HasEdge(e); }
  NodeId EdgeSource(EdgeId e) const { return graph_.EdgeSource(e); }
  NodeId EdgeTarget(EdgeId e) const { return graph_.EdgeTarget(e); }
  const std::vector<EdgeId>& OutEdges(NodeId n) const {
    return graph_.OutEdges(n);
  }
  const std::vector<EdgeId>& InEdges(NodeId n) const {
    return graph_.InEdges(n);
  }

  /// λ(n)_i — the i-th feature of node n (0-based; the paper's f_1 is
  /// index 0).
  ConstId NodeFeature(NodeId n, size_t i) const {
    return node_features_[n * dimension_ + i];
  }
  /// λ(e)_i — the i-th feature of edge e.
  ConstId EdgeFeature(EdgeId e, size_t i) const {
    return edge_features_[e * dimension_ + i];
  }

  /// λ(n)_i as a string ("⊥" for kNullConst).
  const std::string& NodeFeatureString(NodeId n, size_t i) const {
    return dict_.Lookup(NodeFeature(n, i));
  }
  const std::string& EdgeFeatureString(EdgeId e, size_t i) const {
    return dict_.Lookup(EdgeFeature(e, i));
  }

  const Multigraph& topology() const { return graph_; }

  /// The memoized snapshot (CsrSnapshot::FromGraph: feature row 0 is
  /// the edge label), built on first use; an edit makes the next call
  /// rebuild it.
  const CsrSnapshot& Csr() const;

  Interner& dict() { return dict_; }
  const Interner& dict() const { return dict_; }

 private:
  size_t dimension_;
  Multigraph graph_;
  Interner dict_;
  std::vector<ConstId> node_features_;  // flattened n × d
  std::vector<ConstId> edge_features_;  // flattened m × d
  CsrMemo csr_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_VECTOR_GRAPH_H_
