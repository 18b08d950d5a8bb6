#ifndef KGQ_GRAPH_LABELED_GRAPH_H_
#define KGQ_GRAPH_LABELED_GRAPH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_memo.h"
#include "graph/multigraph.h"
#include "util/interner.h"
#include "util/result.h"

namespace kgq {

/// A labeled graph L = (N, E, ρ, λ): a multigraph plus a total labeling
/// λ : (N ∪ E) → Const of both nodes and edges (Section 3, Figure 2(a)).
///
/// The graph owns its constant dictionary, so labels can be supplied and
/// read back as strings while all internal storage uses dense ConstId.
class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Adds a node labeled `label` and returns its id.
  NodeId AddNode(std::string_view label);

  /// Adds an edge labeled `label`; fails if an endpoint does not exist.
  Result<EdgeId> AddEdge(NodeId from, NodeId to, std::string_view label);

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

  /// λ(n) for a node.
  ConstId NodeLabel(NodeId n) const { return node_labels_[n]; }
  /// λ(e) for an edge.
  ConstId EdgeLabel(EdgeId e) const { return edge_labels_[e]; }

  /// λ(n) as a string.
  const std::string& NodeLabelString(NodeId n) const {
    return dict_.Lookup(NodeLabel(n));
  }
  /// λ(e) as a string.
  const std::string& EdgeLabelString(EdgeId e) const {
    return dict_.Lookup(EdgeLabel(e));
  }

  /// The underlying multigraph (N, E, ρ).
  const Multigraph& topology() const { return graph_; }

  /// The memoized labeled snapshot (CsrSnapshot::FromGraph), built on
  /// first use; an edit makes the next call rebuild it.
  const CsrSnapshot& Csr() const;

  /// Makes `csr`, which must equal CsrSnapshot::FromGraph(*this), the
  /// memoized snapshot without a build (a serving epoch's published CSR).
  void SeedCsr(std::shared_ptr<const CsrSnapshot> csr) {
    csr_.Seed(std::move(csr));
  }

  /// The constant dictionary of this graph.
  Interner& dict() { return dict_; }
  const Interner& dict() const { return dict_; }

 private:
  Multigraph graph_;
  Interner dict_;
  std::vector<ConstId> node_labels_;
  std::vector<ConstId> edge_labels_;
  CsrMemo csr_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_LABELED_GRAPH_H_
