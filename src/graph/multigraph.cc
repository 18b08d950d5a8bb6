#include "graph/multigraph.h"

#include <string>

#include "graph/csr_snapshot.h"

namespace kgq {

Multigraph::Multigraph(size_t num_nodes)
    : out_edges_(num_nodes), in_edges_(num_nodes) {}

NodeId Multigraph::AddNode() {
  csr_.Reset();
  NodeId id = static_cast<NodeId>(num_nodes());
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

NodeId Multigraph::AddNodes(size_t count) {
  csr_.Reset();
  NodeId first = static_cast<NodeId>(num_nodes());
  out_edges_.resize(out_edges_.size() + count);
  in_edges_.resize(in_edges_.size() + count);
  return first;
}

Result<EdgeId> Multigraph::AddEdge(NodeId from, NodeId to) {
  if (!HasNode(from) || !HasNode(to)) {
    return Status::InvalidArgument(
        "AddEdge: endpoint out of range (from=" + std::to_string(from) +
        ", to=" + std::to_string(to) +
        ", nodes=" + std::to_string(num_nodes()) + ")");
  }
  csr_.Reset();
  EdgeId id = static_cast<EdgeId>(num_edges());
  sources_.push_back(from);
  targets_.push_back(to);
  out_edges_[from].push_back(id);
  in_edges_[to].push_back(id);
  return id;
}

const CsrSnapshot& Multigraph::Csr() const {
  return csr_.Get([this] { return CsrSnapshot::FromTopology(*this); });
}

}  // namespace kgq
