// Unit + differential suite for the serving write path (serve/delta_store).
//
// The differential half pins the canonical-materialization guarantee: a
// published epoch is bit-identical to a from-scratch
// CsrSnapshot::FromLabeledEdges build over the same logical edge set —
// for 32 seeds of randomized insert/delete/publish histories including
// duplicate inserts and deletions of absent edges.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/labeled_graph.h"
#include "serve/delta_store.h"
#include "util/rng.h"

namespace kgq {
namespace serve {
namespace {

TEST(DeltaStore, StartsAtEmptyPublishedEpochZero) {
  DeltaStore store;
  EXPECT_EQ(store.CurrentEpoch(), 0u);
  EpochPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->graph().num_nodes(), 0u);
  EXPECT_EQ(snap->graph().num_edges(), 0u);
  EXPECT_EQ(snap->csr->num_edges(), 0u);
}

TEST(DeltaStore, DuplicateInsertAndAbsentDeleteAreNoOps) {
  DeltaStore store;
  NodeId a = store.AddNode("person");
  NodeId b = store.AddNode("bus");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  auto first = store.InsertEdge(a, b, "rides");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto dup = store.InsertEdge(a, b, "rides");
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(*dup);  // Set semantics: already live.
  EXPECT_EQ(store.NumLiveEdges(), 1u);

  auto absent = store.DeleteEdge(b, a, "rides");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);  // Absent edge: no-op, not an error.
  EXPECT_EQ(store.NumLiveEdges(), 1u);

  auto live = store.DeleteEdge(a, b, "rides");
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(*live);
  EXPECT_EQ(store.NumLiveEdges(), 0u);
}

TEST(DeltaStore, EdgeWritesRequireExistingEndpoints) {
  DeltaStore store;
  store.AddNode("only");
  EXPECT_FALSE(store.InsertEdge(0, 1, "x").ok());
  EXPECT_FALSE(store.InsertEdge(7, 0, "x").ok());
  EXPECT_FALSE(store.DeleteEdge(0, 1, "x").ok());
  EXPECT_EQ(store.NumLiveEdges(), 0u);
}

TEST(DeltaStore, WritesInvisibleUntilPublish) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EXPECT_EQ(store.Acquire()->graph().num_nodes(), 0u);
  EXPECT_EQ(store.PendingOps(), 3u);

  EpochPtr snap = store.Publish();
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->graph().num_nodes(), 2u);
  EXPECT_EQ(snap->graph().num_edges(), 1u);
  EXPECT_EQ(store.PendingOps(), 0u);
  EXPECT_EQ(store.Acquire(), snap);
}

TEST(DeltaStore, AcquiredEpochSurvivesLaterWrites) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EpochPtr one = store.Publish();

  ASSERT_TRUE(store.DeleteEdge(a, b, "e").ok());
  store.AddNode("late");
  EpochPtr two = store.Publish();

  // The pinned epoch still shows the old state, untouched.
  EXPECT_EQ(one->epoch, 1u);
  EXPECT_EQ(one->graph().num_nodes(), 2u);
  EXPECT_EQ(one->graph().num_edges(), 1u);
  EXPECT_EQ(two->epoch, 2u);
  EXPECT_EQ(two->graph().num_nodes(), 3u);
  EXPECT_EQ(two->graph().num_edges(), 0u);
}

TEST(DeltaStore, LogicalEdgesAreCanonicallyOrdered) {
  DeltaStore store;
  for (int i = 0; i < 3; ++i) store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(2, 0, "b").ok());
  ASSERT_TRUE(store.InsertEdge(0, 1, "z").ok());
  ASSERT_TRUE(store.InsertEdge(0, 1, "a").ok());
  std::vector<EdgeKey> edges = store.LogicalEdges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1, "a"}));
  EXPECT_EQ(edges[1], (EdgeKey{0, 1, "z"}));
  EXPECT_EQ(edges[2], (EdgeKey{2, 0, "b"}));
}

TEST(DeltaStore, PendingOpsResetAcrossPublishes) {
  DeltaStore store;
  NodeId a = store.AddNode("n");
  NodeId b = store.AddNode("n");
  ASSERT_TRUE(store.InsertEdge(a, b, "e").ok());
  EXPECT_EQ(store.PendingOps(), 3u);
  store.Publish();
  EXPECT_EQ(store.PendingOps(), 0u);

  // No-op writes do not count as pending; applied ones do — including
  // an insert later cancelled by a delete (ops, not net effect).
  ASSERT_FALSE(*store.InsertEdge(a, b, "e"));
  EXPECT_EQ(store.PendingOps(), 0u);
  ASSERT_TRUE(*store.InsertEdge(b, a, "e"));
  ASSERT_TRUE(*store.DeleteEdge(b, a, "e"));
  EXPECT_EQ(store.PendingOps(), 2u);
  store.Publish();
  EXPECT_EQ(store.PendingOps(), 0u);
}

TEST(DeltaStore, LogicalEdgesUnderInterleavedInsertDeleteOfSameKey) {
  DeltaStore store;
  store.AddNode("n");
  store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  EXPECT_TRUE(store.LogicalEdges().empty());
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  std::vector<EdgeKey> edges = store.LogicalEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (EdgeKey{0, 1, "e"}));
}

TEST(DeltaStore, DeleteThenReinsertWithinOneEpochIsAnEmptyPublish) {
  DeltaStore store;
  store.AddNode("n");
  store.AddNode("n");
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EpochPtr base = store.Publish();

  // Net delta cancels to nothing: the next publish must share the
  // previous epoch's materialization wholesale and keep its content
  // version (the query cache stays warm across it).
  ASSERT_TRUE(*store.DeleteEdge(0, 1, "e"));
  ASSERT_TRUE(*store.InsertEdge(0, 1, "e"));
  EpochPtr next = store.Publish();
  EXPECT_EQ(next->epoch, base->epoch + 1);
  EXPECT_EQ(next->content_version, base->content_version);
  EXPECT_EQ(next->csr, base->csr);  // shared pointer, not a copy
  EXPECT_TRUE(next->delta.inserted.empty());
  EXPECT_TRUE(next->delta.deleted.empty());
  EXPECT_EQ(next->delta.nodes_added, 0u);
}

TEST(DeltaStore, ContentVersionBumpsOnlyOnContentChange) {
  DeltaStore store;
  EpochPtr empty = store.Publish();
  EXPECT_EQ(empty->content_version, 0u);  // still the empty graph

  store.AddNode("n");
  EpochPtr one = store.Publish();
  EXPECT_EQ(one->content_version, empty->content_version + 1);

  EpochPtr two = store.Publish();  // nothing pending
  EXPECT_EQ(two->epoch, one->epoch + 1);
  EXPECT_EQ(two->content_version, one->content_version);
}

// ---------------------------------------------------------------------------
// Differential: every published epoch == the from-scratch build.

/// Reference model: plain node-label list + std::set of edge keys.
struct RefModel {
  std::vector<std::string> nodes;
  std::set<EdgeKey> edges;
};

/// Builds the canonical materialization the way a cold start would:
/// LabeledGraph from scratch, snapshot via FromLabeledEdges.
void BuildReference(const RefModel& ref, LabeledGraph* graph,
                    CsrSnapshot* csr) {
  for (const std::string& label : ref.nodes) graph->AddNode(label);
  for (const EdgeKey& e : ref.edges) {
    ASSERT_TRUE(graph->AddEdge(e.from, e.to, e.label).ok());
  }
  *csr = CsrSnapshot::FromLabeledEdges(
      graph->topology(),
      [graph](EdgeId e) { return graph->EdgeLabelString(e); });
}

void ExpectSnapshotsIdentical(const EpochSnapshot& got,
                              const LabeledGraph& want_graph,
                              const CsrSnapshot& want_csr) {
  ASSERT_EQ(got.graph().num_nodes(), want_graph.num_nodes());
  ASSERT_EQ(got.graph().num_edges(), want_graph.num_edges());
  for (NodeId n = 0; n < got.graph().num_nodes(); ++n) {
    ASSERT_EQ(got.graph().NodeLabelString(n), want_graph.NodeLabelString(n));
  }
  // Edge lists compare in edge-id order — materialization order itself
  // is part of the contract (it determines label interning).
  ASSERT_EQ(got.csr->ToEdgeList(), want_csr.ToEdgeList());
  ASSERT_EQ(got.csr->num_labels(), want_csr.num_labels());
  for (LabelId l = 0; l < got.csr->num_labels(); ++l) {
    ASSERT_EQ(got.csr->LabelName(l), want_csr.LabelName(l));
    ASSERT_EQ(got.csr->CountForLabel(l), want_csr.CountForLabel(l));
  }
  ASSERT_TRUE(got.csr->MatchesTopology(got.graph().topology()));
  // The strongest form: every member of the snapshot (offset arrays,
  // partitioned views, interning tables) compares equal — bit-identity
  // of the incremental merge with the from-scratch build.
  ASSERT_TRUE(*got.csr == want_csr);
}

/// One adjacency per epoch: the epoch graph's memoized Csr() is the
/// published CSR object itself, and equals what FromGraph would build.
void ExpectGraphMemoIsPublishedCsr(const EpochSnapshot& snap) {
  ASSERT_EQ(&snap.graph().Csr(), snap.csr.get());
  ASSERT_TRUE(CsrSnapshot::FromGraph(snap.graph()) == *snap.csr);
}

TEST(DeltaStoreDifferential, PublishedEpochsMatchFromScratchBuilds) {
  const std::vector<std::string> kLabels = {"a", "b", "c", "rides"};
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    DeltaStore store;  // incremental publication (the default)
    DeltaStore full(DeltaStoreOptions{/*incremental_publish=*/false});
    RefModel ref;
    uint64_t published = 0;

    const size_t ops = 60 + rng.Below(120);
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t pick = rng.Below(100);
      if (pick < 20 || ref.nodes.empty()) {
        const std::string& label = kLabels[rng.Below(kLabels.size())];
        NodeId id = store.AddNode(label);
        ASSERT_EQ(full.AddNode(label), id) << "seed " << seed;
        ASSERT_EQ(id, ref.nodes.size()) << "seed " << seed;
        ref.nodes.push_back(label);
      } else if (pick < 60) {
        EdgeKey e{static_cast<NodeId>(rng.Below(ref.nodes.size())),
                  static_cast<NodeId>(rng.Below(ref.nodes.size())),
                  kLabels[rng.Below(kLabels.size())]};
        auto applied = store.InsertEdge(e.from, e.to, e.label);
        ASSERT_TRUE(applied.ok()) << "seed " << seed;
        ASSERT_TRUE(full.InsertEdge(e.from, e.to, e.label).ok());
        // Duplicate inserts happen naturally: applied iff it was new.
        EXPECT_EQ(*applied, ref.edges.insert(e).second) << "seed " << seed;
      } else if (pick < 90) {
        // Half the deletes target a random (mostly absent) key, half an
        // actually live edge.
        EdgeKey e;
        if (!ref.edges.empty() && rng.Bernoulli(0.5)) {
          auto it = ref.edges.begin();
          std::advance(it, rng.Below(ref.edges.size()));
          e = *it;
        } else {
          e = EdgeKey{static_cast<NodeId>(rng.Below(ref.nodes.size())),
                      static_cast<NodeId>(rng.Below(ref.nodes.size())),
                      kLabels[rng.Below(kLabels.size())]};
        }
        auto applied = store.DeleteEdge(e.from, e.to, e.label);
        ASSERT_TRUE(applied.ok()) << "seed " << seed;
        ASSERT_TRUE(full.DeleteEdge(e.from, e.to, e.label).ok());
        EXPECT_EQ(*applied, ref.edges.erase(e) > 0) << "seed " << seed;
      } else {
        EpochPtr snap = store.Publish();
        ASSERT_EQ(snap->epoch, ++published) << "seed " << seed;
        LabeledGraph want_graph;
        CsrSnapshot want_csr;
        BuildReference(ref, &want_graph, &want_csr);
        ExpectSnapshotsIdentical(*snap, want_graph, want_csr);
        // The from-scratch publication path must agree member-for-member
        // with the incremental merge — the cross-path differential.
        EpochPtr fsnap = full.Publish();
        ASSERT_TRUE(*fsnap->csr == *snap->csr) << "seed " << seed;
        // Both publication paths seed the epoch graph's memo.
        ExpectGraphMemoIsPublishedCsr(*snap);
        ExpectGraphMemoIsPublishedCsr(*fsnap);
      }
    }

    // Final publish: the end state must round-trip too.
    EpochPtr snap = store.Publish();
    ASSERT_EQ(snap->epoch, published + 1) << "seed " << seed;
    LabeledGraph want_graph;
    CsrSnapshot want_csr;
    BuildReference(ref, &want_graph, &want_csr);
    ExpectSnapshotsIdentical(*snap, want_graph, want_csr);

    // History independence: replaying only the *surviving* state in
    // canonical order publishes a bit-identical epoch.
    DeltaStore replay;
    for (const std::string& label : ref.nodes) replay.AddNode(label);
    for (const EdgeKey& e : ref.edges) {
      ASSERT_TRUE(replay.InsertEdge(e.from, e.to, e.label).ok());
    }
    EpochPtr replayed = replay.Publish();
    ExpectSnapshotsIdentical(*replayed, snap->graph(), *snap->csr);
  }
}

}  // namespace
}  // namespace serve
}  // namespace kgq
