#ifndef KGQ_SERVE_DELTA_STORE_H_
#define KGQ_SERVE_DELTA_STORE_H_

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/labeled_graph.h"
#include "util/result.h"

namespace kgq {
namespace serve {

/// One labeled edge of the store's *logical* edge set. The serving data
/// model is a set — not a multiset — of (from, to, label) triples:
/// inserting an edge that is already live is a no-op, and so is deleting
/// one that is not. That is what makes insert/delete logs from different
/// clients commute into one well-defined graph.
struct EdgeKey {
  NodeId from = 0;
  NodeId to = 0;
  std::string label;

  auto operator<=>(const EdgeKey&) const = default;
};

/// Node labels per chunk of the shared node table.
inline constexpr size_t kNodeChunk = 1024;

/// A read-only view of the append-only node table: the chunk pointers
/// plus a size watermark. Chunks are allocated at full size and slots
/// are only written before a publish makes them visible (the store's
/// mutex orders the write before the view's construction), so readers
/// may touch any slot below the watermark without synchronization.
/// Epoch memory cost: one pointer per ~kNodeChunk nodes, shared across
/// every epoch — node labels themselves are never copied per epoch.
struct NodeTableView {
  std::vector<std::shared_ptr<const std::vector<std::string>>> chunks;
  size_t size = 0;  ///< watermark: ids in [0, size) are readable.

  const std::string& label(NodeId n) const {
    return (*chunks[n / kNodeChunk])[n % kNodeChunk];
  }
};

/// The logical change between a snapshot and the epoch it was published
/// from — the input the incremental CSR merge consumed and the view
/// cache replays to advance materialized analytics. Lists are in
/// canonical (from, to, label) order and net: an edge inserted and
/// deleted within one epoch appears in neither.
struct EpochDelta {
  bool has_base = false;  ///< false only for the initial epoch-0 snapshot.
  uint64_t base_epoch = 0;
  std::vector<CsrSnapshot::EdgeRecord> inserted;
  std::vector<CsrSnapshot::EdgeRecord> deleted;
  size_t nodes_added = 0;
};

/// One published version of the graph: an immutable materialization of
/// the logical edge set at publish time, shared by every reader that
/// acquired it. The CSR snapshot carries canonical edge ids (sorted by
/// (from, to, label)), so the whole query stack (planner stats,
/// label-partition scans, matrix RPQ) runs on it unchanged.
///
/// Readers keep the EpochSnapshot alive through a shared_ptr
/// (DeltaStore::Acquire); it is never mutated after construction (the
/// lazily built LabeledGraph is guarded by a once_flag), so a query
/// pinned to an epoch can never observe a torn graph no matter how many
/// writers race ahead of it.
struct EpochSnapshot {
  uint64_t epoch = 0;

  /// Bumps only when the published *content* changed (net edge delta
  /// nonempty or nodes added). Empty publishes advance `epoch` but keep
  /// the content version — the query cache keys on this, so republishing
  /// unchanged data keeps every cached answer.
  uint64_t content_version = 0;

  NodeTableView nodes;
  std::shared_ptr<const CsrSnapshot> csr;
  EpochDelta delta;

  /// Node-label tallies of this epoch (label → count), shared across
  /// epochs until a node is added; the planner's O(1) node-test
  /// selectivity source.
  std::shared_ptr<const std::map<std::string, size_t>> node_label_counts;

  size_t num_nodes() const { return nodes.size; }
  size_t num_edges() const { return csr->num_edges(); }

  /// The materialized LabeledGraph of this epoch — identical to what a
  /// from-scratch canonical build constructs. Built lazily on first use
  /// (the plan compiler and scalar engines need it; the CSR-native
  /// kernels do not), or pre-seeded by the full-rebuild publish path.
  /// Its memoized Csr() is `csr` itself, seeded, never built.
  /// Thread-safe; snapshots with identical content share one build.
  const LabeledGraph& graph() const;

  /// Shared lazy cell so content-identical epochs (empty publishes)
  /// reuse one graph build.
  struct LazyGraph {
    std::once_flag once;
    std::unique_ptr<const LabeledGraph> graph;
  };
  std::shared_ptr<LazyGraph> lazy_graph = std::make_shared<LazyGraph>();
};

using EpochPtr = std::shared_ptr<const EpochSnapshot>;

struct DeltaStoreOptions {
  /// Publish via CsrSnapshot::ApplyCanonicalDelta (cost proportional to
  /// the delta plus the array rewrite; no string interning, no
  /// LabeledGraph build). false = from-scratch materialization, kept as
  /// the differential reference path.
  bool incremental_publish = true;
};

/// The write path of the serving layer: a mutable node table plus an
/// edge delta log (insert/delete) with epoch-based publication.
///
/// Writes mutate only the store's private state; queries never see them.
/// Publish() materializes the current logical edge set into a fresh
/// EpochSnapshot and swaps it in atomically — readers acquire the
/// current epoch with one shared_ptr copy and keep it for the whole
/// query, so they never block on writers and writers never wait for
/// readers (old epochs die when their last reader drops them).
///
/// Materialization is *canonical*: nodes in id order, edges sorted by
/// (from, to, label). Two histories with the same logical edge set
/// therefore publish bit-identical snapshots — the property the
/// differential suite (tests/test_delta_store.cc) pins against
/// from-scratch FromLabeledEdges builds.
///
/// Publication is *incremental* by default: the store tracks the net
/// edge delta since the last publish (insert-then-delete of the same key
/// cancels), reuses the previous epoch's CSR wholesale when the net
/// delta is empty and the node table did not grow, and otherwise merges
/// the delta into the previous canonical edge stream — never rebuilding
/// the LabeledGraph or re-interning label strings. The node table is
/// shared append-only (chunk pointers + watermark) rather than copied.
///
/// All public methods are thread-safe; writes are serialized by one
/// mutex (publication included), reads of the current epoch are a
/// pointer copy under the same short lock.
///
/// obs: gauge serve.epoch tracks the latest published epoch; counters
/// serve.writes.applied / serve.writes.noop tally mutations that did /
/// did not change the logical state; span serve.publish covers
/// materialization, histogram serve.publish.edges records the edge
/// count of each published epoch and serve.publish.dirty_labels the
/// number of distinct edge labels touched by its net delta.
class DeltaStore {
 public:
  /// Starts at epoch 0: the empty graph, already published (queries
  /// before the first Publish() see an empty epoch, not an error).
  explicit DeltaStore(DeltaStoreOptions options = {});

  /// Adds a node labeled `label`; returns its id. Nodes are append-only
  /// (ids are dense and never reused) and become queryable at the next
  /// Publish().
  NodeId AddNode(std::string_view label);

  /// Logs the insertion of edge (from, to, label). Returns true when
  /// the edge was absent (the logical set changed), false for a
  /// duplicate insert (no-op). Fails if an endpoint does not exist.
  Result<bool> InsertEdge(NodeId from, NodeId to, std::string_view label);

  /// Logs the deletion of edge (from, to, label). Returns true when the
  /// edge was live (the logical set changed), false when it was absent
  /// (no-op). Fails if an endpoint does not exist.
  Result<bool> DeleteEdge(NodeId from, NodeId to, std::string_view label);

  /// Materializes the current logical state as epoch N+1 and publishes
  /// it. Returns the new epoch's snapshot.
  EpochPtr Publish();

  /// The current published epoch — one shared_ptr copy; never blocks on
  /// writers beyond the pointer swap itself.
  EpochPtr Acquire() const;

  /// Epoch number of the latest published snapshot.
  uint64_t CurrentEpoch() const;

  /// Unpublished state introspection (nodes include pending ones).
  size_t NumNodes() const;
  size_t NumLiveEdges() const;
  /// Applied delta operations (node adds + effective inserts/deletes)
  /// since the last Publish(). Counts operations, not net effect: an
  /// insert cancelled by a later delete still counted two ops.
  size_t PendingOps() const;

  /// Per-instance lifetime write tallies: mutations that changed /
  /// did not change the logical state since construction (the numbers
  /// behind the "stats" response; the serve.writes.* registry counters
  /// are process-global and mix every store in the process).
  uint64_t WritesApplied() const;
  uint64_t WritesNoop() const;

  /// The logical edge set in canonical (from, to, label) order — what
  /// the next Publish() will materialize. Test/debug surface.
  std::vector<EdgeKey> LogicalEdges() const;

 private:
  /// From-scratch canonical materialization (LabeledGraph +
  /// FromLabeledEdges), pre-seeding the snapshot's lazy graph. Caller
  /// holds mu_.
  std::shared_ptr<const CsrSnapshot> FullCsrLocked(
      EpochSnapshot* snap) const;

  /// Read-only view of the node table at the current watermark. Caller
  /// holds mu_.
  NodeTableView NodeViewLocked() const;

  DeltaStoreOptions options_;

  mutable std::mutex mu_;
  /// Append-only chunked node table: chunks are allocated at kNodeChunk
  /// capacity up front so published views never observe a reallocation.
  std::vector<std::shared_ptr<std::vector<std::string>>> node_chunks_;
  size_t num_nodes_ = 0;
  std::map<std::string, size_t> node_label_counts_;

  std::set<EdgeKey> edges_;
  /// Net edge changes since the last publish: true = insert, false =
  /// delete; cancelling pairs are dropped as they happen. std::map keeps
  /// canonical order for free.
  std::map<EdgeKey, bool> delta_;
  size_t base_nodes_ = 0;  ///< node watermark at the last publish

  size_t pending_ops_ = 0;
  uint64_t writes_applied_ = 0;
  uint64_t writes_noop_ = 0;
  uint64_t epoch_ = 0;
  EpochPtr current_;
};

}  // namespace serve
}  // namespace kgq

#endif  // KGQ_SERVE_DELTA_STORE_H_
