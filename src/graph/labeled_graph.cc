#include "graph/labeled_graph.h"

#include "graph/csr_snapshot.h"

namespace kgq {

NodeId LabeledGraph::AddNode(std::string_view label) {
  csr_.Reset();
  NodeId id = graph_.AddNode();
  node_labels_.push_back(dict_.Intern(label));
  return id;
}

Result<EdgeId> LabeledGraph::AddEdge(NodeId from, NodeId to,
                                     std::string_view label) {
  csr_.Reset();
  KGQ_ASSIGN_OR_RETURN(EdgeId id, graph_.AddEdge(from, to));
  edge_labels_.push_back(dict_.Intern(label));
  return id;
}

const CsrSnapshot& LabeledGraph::Csr() const {
  return csr_.Get([this] { return CsrSnapshot::FromGraph(*this); });
}

}  // namespace kgq
