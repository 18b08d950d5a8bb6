#include "serve/delta_store.h"

#include <utility>

#include "obs/obs.h"

namespace kgq {
namespace serve {

const LabeledGraph& EpochSnapshot::graph() const {
  std::call_once(lazy_graph->once, [this] {
    auto g = std::make_unique<LabeledGraph>();
    for (NodeId n = 0; n < nodes.size; ++n) g->AddNode(nodes.label(n));
    // CSR edge ids are canonical, so AddEdge interning order — and with
    // it the whole graph — matches the from-scratch materialization.
    for (EdgeId e = 0; e < csr->num_edges(); ++e) {
      g->AddEdge(csr->EdgeSource(e), csr->EdgeTarget(e),
                 csr->LabelName(csr->EdgeLabel(e)))
          .value();
    }
    g->SeedCsr(csr);
    lazy_graph->graph = std::move(g);
  });
  return *lazy_graph->graph;
}

DeltaStore::DeltaStore(DeltaStoreOptions options) : options_(options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = 0;
  snap->content_version = 0;
  snap->nodes = NodeViewLocked();
  snap->csr = FullCsrLocked(snap.get());
  snap->node_label_counts =
      std::make_shared<const std::map<std::string, size_t>>();
  current_ = std::move(snap);
}

NodeId DeltaStore::AddNode(std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (num_nodes_ % kNodeChunk == 0) {
    // Full-capacity chunks from the start: a published view's chunk
    // pointers never see a reallocation, only slot writes that the
    // publish mutex already ordered before the view existed.
    node_chunks_.push_back(
        std::make_shared<std::vector<std::string>>(kNodeChunk));
  }
  (*node_chunks_.back())[num_nodes_ % kNodeChunk] = std::string(label);
  ++node_label_counts_[std::string(label)];
  ++num_nodes_;
  ++pending_ops_;
  ++writes_applied_;
  KGQ_COUNTER_INC("serve.writes.applied");
  return static_cast<NodeId>(num_nodes_ - 1);
}

Result<bool> DeltaStore::InsertEdge(NodeId from, NodeId to,
                                    std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("insert_edge: no such node");
  }
  EdgeKey key{from, to, std::string(label)};
  bool applied = edges_.insert(key).second;
  if (applied) {
    // Net-delta bookkeeping: re-inserting an edge deleted earlier this
    // epoch cancels the pending delete (state is back to the base
    // epoch's); otherwise this is a pending insert.
    auto it = delta_.find(key);
    if (it != delta_.end()) {
      delta_.erase(it);
    } else {
      delta_.emplace(std::move(key), true);
    }
    ++pending_ops_;
    ++writes_applied_;
    KGQ_COUNTER_INC("serve.writes.applied");
  } else {
    ++writes_noop_;
    KGQ_COUNTER_INC("serve.writes.noop");
  }
  return applied;
}

Result<bool> DeltaStore::DeleteEdge(NodeId from, NodeId to,
                                    std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("delete_edge: no such node");
  }
  EdgeKey key{from, to, std::string(label)};
  bool applied = edges_.erase(key) > 0;
  if (applied) {
    auto it = delta_.find(key);
    if (it != delta_.end()) {
      delta_.erase(it);  // Deleting an intra-epoch insert: full cancel.
    } else {
      delta_.emplace(std::move(key), false);
    }
    ++pending_ops_;
    ++writes_applied_;
    KGQ_COUNTER_INC("serve.writes.applied");
  } else {
    ++writes_noop_;
    KGQ_COUNTER_INC("serve.writes.noop");
  }
  return applied;
}

NodeTableView DeltaStore::NodeViewLocked() const {
  NodeTableView view;
  view.chunks.assign(node_chunks_.begin(), node_chunks_.end());
  view.size = num_nodes_;
  return view;
}

std::shared_ptr<const CsrSnapshot> DeltaStore::FullCsrLocked(
    EpochSnapshot* snap) const {
  auto graph = std::make_unique<LabeledGraph>();
  for (size_t c = 0, n = 0; n < num_nodes_; ++c) {
    const std::vector<std::string>& chunk = *node_chunks_[c];
    for (size_t i = 0; i < kNodeChunk && n < num_nodes_; ++i, ++n) {
      graph->AddNode(chunk[i]);
    }
  }
  // std::set iterates in canonical (from, to, label) order, so edge ids
  // — and with them the CSR label interning — depend only on the
  // logical edge set, never on the insert/delete history.
  for (const EdgeKey& e : edges_) {
    graph->AddEdge(e.from, e.to, e.label).value();
  }
  const LabeledGraph& g = *graph;
  auto csr = std::make_shared<CsrSnapshot>(CsrSnapshot::FromLabeledEdges(
      g.topology(), [&g](EdgeId e) { return g.EdgeLabelString(e); }));
  graph->SeedCsr(csr);
  // The full path already paid for the graph: seed the lazy cell.
  std::call_once(snap->lazy_graph->once, [&] {
    snap->lazy_graph->graph = std::move(graph);
  });
  return csr;
}

EpochPtr DeltaStore::Publish() {
  std::lock_guard<std::mutex> lock(mu_);
  KGQ_SPAN("serve.publish");
  const EpochSnapshot& prev = *current_;
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = epoch_ + 1;
  snap->nodes = NodeViewLocked();
  snap->delta.has_base = true;
  snap->delta.base_epoch = prev.epoch;
  snap->delta.nodes_added = num_nodes_ - base_nodes_;
  for (const auto& [key, is_insert] : delta_) {
    (is_insert ? snap->delta.inserted : snap->delta.deleted)
        .push_back({key.from, key.to, key.label});
  }
  std::set<std::string_view> dirty_labels;
  for (const auto& [key, is_insert] : delta_) dirty_labels.insert(key.label);

  const bool content_changed = !delta_.empty() || num_nodes_ != base_nodes_;
  if (!content_changed) {
    // Empty net delta: the epoch number bumps but every materialized
    // artifact — CSR, node-label stats, even an already-built graph —
    // is shared wholesale.
    snap->content_version = prev.content_version;
    snap->csr = prev.csr;
    snap->node_label_counts = prev.node_label_counts;
    snap->lazy_graph = prev.lazy_graph;
  } else {
    snap->content_version = prev.content_version + 1;
    snap->node_label_counts =
        num_nodes_ != base_nodes_
            ? std::make_shared<const std::map<std::string, size_t>>(
                  node_label_counts_)
            : prev.node_label_counts;
    if (options_.incremental_publish) {
      snap->csr = std::make_shared<CsrSnapshot>(CsrSnapshot::ApplyCanonicalDelta(
          *prev.csr, num_nodes_, snap->delta.inserted, snap->delta.deleted));
    } else {
      snap->csr = FullCsrLocked(snap.get());
    }
  }

  // Dirty labels are counted per net-delta, so the histogram is the
  // "how partitioned was this publish" signal the view cache's label
  // reuse rides on. Labels whose net delta cancelled out count 0.
  KGQ_HISTOGRAM_RECORD("serve.publish.dirty_labels", dirty_labels.size());

  epoch_ = snap->epoch;
  base_nodes_ = num_nodes_;
  delta_.clear();
  pending_ops_ = 0;
  current_ = snap;
  KGQ_GAUGE_SET("serve.epoch", epoch_);
  KGQ_HISTOGRAM_RECORD("serve.publish.edges", edges_.size());
  return current_;
}

EpochPtr DeltaStore::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t DeltaStore::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t DeltaStore::NumNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_nodes_;
}

size_t DeltaStore::NumLiveEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_.size();
}

size_t DeltaStore::PendingOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_ops_;
}

uint64_t DeltaStore::WritesApplied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_applied_;
}

uint64_t DeltaStore::WritesNoop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_noop_;
}

std::vector<EdgeKey> DeltaStore::LogicalEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<EdgeKey>(edges_.begin(), edges_.end());
}

}  // namespace serve
}  // namespace kgq
