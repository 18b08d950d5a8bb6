#include "graph/vector_graph.h"

#include <cassert>

#include "graph/csr_snapshot.h"

namespace kgq {

VectorGraph::VectorGraph(size_t dimension) : dimension_(dimension) {
  assert(dimension >= 1);
}

Result<NodeId> VectorGraph::AddNode(std::vector<ConstId> features) {
  if (features.size() != dimension_) {
    return Status::InvalidArgument(
        "AddNode: feature vector has size " +
        std::to_string(features.size()) + ", expected " +
        std::to_string(dimension_));
  }
  csr_.Reset();
  NodeId id = graph_.AddNode();
  node_features_.insert(node_features_.end(), features.begin(),
                        features.end());
  return id;
}

Result<NodeId> VectorGraph::AddNodeFromStrings(
    const std::vector<std::string_view>& features) {
  std::vector<ConstId> ids;
  ids.reserve(features.size());
  for (std::string_view f : features) {
    ids.push_back(f.empty() ? kNullConst : dict_.Intern(f));
  }
  return AddNode(std::move(ids));
}

Result<EdgeId> VectorGraph::AddEdge(NodeId from, NodeId to,
                                    std::vector<ConstId> features) {
  if (features.size() != dimension_) {
    return Status::InvalidArgument(
        "AddEdge: feature vector has size " +
        std::to_string(features.size()) + ", expected " +
        std::to_string(dimension_));
  }
  csr_.Reset();
  KGQ_ASSIGN_OR_RETURN(EdgeId id, graph_.AddEdge(from, to));
  edge_features_.insert(edge_features_.end(), features.begin(),
                        features.end());
  return id;
}

Result<EdgeId> VectorGraph::AddEdgeFromStrings(
    NodeId from, NodeId to, const std::vector<std::string_view>& features) {
  std::vector<ConstId> ids;
  ids.reserve(features.size());
  for (std::string_view f : features) {
    ids.push_back(f.empty() ? kNullConst : dict_.Intern(f));
  }
  return AddEdge(from, to, std::move(ids));
}

const CsrSnapshot& VectorGraph::Csr() const {
  return csr_.Get([this] { return CsrSnapshot::FromGraph(*this); });
}

}  // namespace kgq
