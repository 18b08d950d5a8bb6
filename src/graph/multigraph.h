#ifndef KGQ_GRAPH_MULTIGRAPH_H_
#define KGQ_GRAPH_MULTIGRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/csr_memo.h"
#include "util/result.h"
#include "util/status.h"

namespace kgq {

/// Dense node identifier (an index into the node arrays).
using NodeId = uint32_t;
/// Dense edge identifier (an index into the edge arrays).
using EdgeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;
/// Sentinel for "no edge".
inline constexpr EdgeId kNoEdge = 0xFFFFFFFFu;

/// A directed multigraph (N, E, ρ): the common substrate of every data
/// model in Section 3 of the paper. Multiple edges may connect the same
/// pair of nodes; ρ maps each edge to its (source, target) pair.
///
/// Nodes and edges are identified by dense indexes, so per-node and
/// per-edge annotations (labels, properties, feature vectors) are plain
/// arrays in the model classes layered on top.
///
/// The path, plan, GNN and centrality kernels do not traverse the
/// per-node lists below: they read a CsrSnapshot (Csr()), built once on
/// first use.
class Multigraph {
 public:
  Multigraph() = default;

  /// Creates a graph with `num_nodes` isolated nodes.
  explicit Multigraph(size_t num_nodes);

  /// Adds an isolated node and returns its id.
  NodeId AddNode();

  /// Adds `count` isolated nodes; returns the id of the first.
  NodeId AddNodes(size_t count);

  /// Adds an edge from `from` to `to`. Fails with InvalidArgument if
  /// either endpoint is not a node of this graph.
  Result<EdgeId> AddEdge(NodeId from, NodeId to);

  size_t num_nodes() const { return out_edges_.size(); }
  size_t num_edges() const { return sources_.size(); }

  bool HasNode(NodeId n) const { return n < num_nodes(); }
  bool HasEdge(EdgeId e) const { return e < num_edges(); }

  /// ρ(e).first — the starting node of edge e.
  NodeId EdgeSource(EdgeId e) const { return sources_[e]; }
  /// ρ(e).second — the ending node of edge e.
  NodeId EdgeTarget(EdgeId e) const { return targets_[e]; }

  /// Edges whose source is n, in insertion order.
  const std::vector<EdgeId>& OutEdges(NodeId n) const {
    return out_edges_[n];
  }
  /// Edges whose target is n, in insertion order.
  const std::vector<EdgeId>& InEdges(NodeId n) const { return in_edges_[n]; }

  /// Out-degree / in-degree of n.
  size_t OutDegree(NodeId n) const { return out_edges_[n].size(); }
  size_t InDegree(NodeId n) const { return in_edges_[n].size(); }

  /// The memoized topology-only snapshot (CsrSnapshot::FromTopology),
  /// built on first use; an edit makes the next call rebuild it.
  const CsrSnapshot& Csr() const;

 private:
  std::vector<NodeId> sources_;
  std::vector<NodeId> targets_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  CsrMemo csr_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_MULTIGRAPH_H_
