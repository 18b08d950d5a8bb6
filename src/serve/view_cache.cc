#include "serve/view_cache.h"

#include <algorithm>
#include <utility>

#include "analytics/pagerank.h"
#include "obs/obs.h"

namespace kgq {
namespace serve {

namespace {

/// Union-find with path halving; roots are only read through Find.
struct Dsu {
  std::vector<uint32_t> parent;
  explicit Dsu(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = static_cast<uint32_t>(i);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

/// The label's adjacency matrix at `snap` — the shared per-label
/// constructor from pathalg/matrix_rpq.h.
BoolCsr AdjForLabel(const EpochSnapshot& snap, std::string_view label) {
  return BoolCsrForLabel(*snap.csr, label);
}

/// Extends a closure matrix to `n` nodes (appended nodes have empty
/// rows/columns — exactly what an untouched label's closure looks like
/// after node growth).
BoolCsr PadTo(const BoolCsr& m, size_t n) {
  BoolCsr out = m;
  out.num_rows = n;
  out.num_cols = n;
  out.offsets.resize(n + 1, m.cols.size());
  return out;
}

/// From-scratch positive-length closure R = A⁺ by frontier iteration.
BoolCsr ColdClosure(const BoolCsr& adj, const ParallelOptions& par) {
  BoolCsr r = adj;
  BoolCsr delta = adj;
  while (delta.nnz() != 0) {
    delta = BoolSpGemmDelta(delta, adj, r, par);
    if (delta.nnz() == 0) break;
    r = BoolUnion(r, delta);
  }
  return r;
}

/// True when the epoch transition carried no content change at all.
bool DeltaIsEmpty(const EpochDelta& d) {
  return d.inserted.empty() && d.deleted.empty() && d.nodes_added == 0;
}

}  // namespace

bool ViewCache::CanAdvance(const EpochPtr& cached, const EpochPtr& snap) {
  return cached != nullptr && snap->delta.has_base &&
         snap->delta.base_epoch == cached->epoch;
}

std::shared_ptr<const ComponentAssignment> ViewCache::Components(
    const EpochPtr& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  if (components_.snap != nullptr && components_.snap->epoch == snap->epoch) {
    KGQ_COUNTER_INC("serve.view.hit");
    return components_.value;
  }
  std::shared_ptr<const ComponentAssignment> value;
  if (CanAdvance(components_.snap, snap)) {
    if (DeltaIsEmpty(snap->delta)) {
      KGQ_COUNTER_INC("serve.view.hit");
      value = components_.value;
    } else if (!snap->delta.deleted.empty()) {
      // An edge deletion can split a component; recompute.
      KGQ_COUNTER_INC("serve.view.fallback");
      value = std::make_shared<ComponentAssignment>(
          WeaklyConnectedComponentsCsr(*snap->csr));
    } else {
      KGQ_COUNTER_INC("serve.view.advance");
      const ComponentAssignment& old = *components_.value;
      const size_t nn = snap->num_nodes();
      Dsu dsu(nn);
      // Seed with the previous partition: union every old node into its
      // component's first (minimum-id) member.
      std::vector<uint32_t> rep(old.num_components, 0xFFFFFFFFu);
      for (NodeId v = 0; v < old.component.size(); ++v) {
        uint32_t c = old.component[v];
        if (rep[c] == 0xFFFFFFFFu) {
          rep[c] = v;
        } else {
          dsu.Union(v, rep[c]);
        }
      }
      for (const CsrSnapshot::EdgeRecord& e : snap->delta.inserted) {
        dsu.Union(e.from, e.to);
      }
      // Canonical relabel: first-seen root in ascending node order ==
      // the BFS traversal's discovery-order component ids.
      auto fresh = std::make_shared<ComponentAssignment>();
      fresh->component.assign(nn, 0xFFFFFFFFu);
      std::vector<uint32_t> remap(nn, 0xFFFFFFFFu);
      for (NodeId v = 0; v < nn; ++v) {
        uint32_t root = dsu.Find(static_cast<uint32_t>(v));
        if (remap[root] == 0xFFFFFFFFu) remap[root] = fresh->num_components++;
        fresh->component[v] = remap[root];
      }
      value = fresh;
    }
  } else {
    KGQ_COUNTER_INC("serve.view.rebuild");
    value = std::make_shared<ComponentAssignment>(
        WeaklyConnectedComponentsCsr(*snap->csr));
  }
  components_ = ComponentsEntry{snap, value};
  return value;
}

std::shared_ptr<const std::vector<int64_t>> ViewCache::PageRank(
    const EpochPtr& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pagerank_.snap != nullptr &&
      (pagerank_.snap->epoch == snap->epoch ||
       (CanAdvance(pagerank_.snap, snap) && DeltaIsEmpty(snap->delta)))) {
    KGQ_COUNTER_INC("serve.view.hit");
    pagerank_.snap = snap;
    return pagerank_.value;
  }
  KGQ_COUNTER_INC("serve.view.rebuild");
  auto value = std::make_shared<const std::vector<int64_t>>(
      PageRankLeastFixpoint(*snap->csr).rank);
  pagerank_ = PageRankEntry{snap, value};
  return value;
}

std::shared_ptr<const BoolCsr> ViewCache::Reachability(
    const EpochPtr& snap, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = reach_.find(label);
  if (it != reach_.end() && it->second.snap->epoch == snap->epoch) {
    KGQ_COUNTER_INC("serve.view.hit");
    return it->second.closure;
  }
  std::shared_ptr<const BoolCsr> closure;
  const size_t nn = snap->num_nodes();
  if (it != reach_.end() && CanAdvance(it->second.snap, snap)) {
    bool label_deleted = false;
    for (const CsrSnapshot::EdgeRecord& e : snap->delta.deleted) {
      if (e.label == label) {
        label_deleted = true;
        break;
      }
    }
    std::vector<std::pair<uint32_t, uint32_t>> ins;
    for (const CsrSnapshot::EdgeRecord& e : snap->delta.inserted) {
      if (e.label == label) ins.emplace_back(e.from, e.to);
    }
    if (label_deleted) {
      // Deletes can remove closure pairs; per-label recompute.
      KGQ_COUNTER_INC("serve.view.fallback");
      closure = std::make_shared<BoolCsr>(
          ColdClosure(AdjForLabel(*snap, label), parallel_));
    } else if (ins.empty()) {
      // Untouched label: the closure carries over by pointer (padded
      // for node growth — appended nodes have no edges of this label).
      KGQ_COUNTER_INC("serve.view.hit");
      closure = it->second.closure->num_rows == nn
                    ? it->second.closure
                    : std::make_shared<BoolCsr>(
                          PadTo(*it->second.closure, nn));
    } else {
      // Insert-only delta D: the first new edge of any new path is in
      // D, so Δ₀ = (D ∪ R·D) \ R seeds every new pair's prefix; the
      // frontier loop extends suffixes one A'-step at a time.
      KGQ_COUNTER_INC("serve.view.advance");
      BoolCsr r = PadTo(*it->second.closure, nn);
      BoolCsr adj = AdjForLabel(*snap, label);
      BoolCsr d = BoolCsr::FromEntries(nn, nn, ins);
      BoolCsr delta = BoolUnion(BoolSpGemmDelta(r, d, r, parallel_), [&] {
        std::vector<std::pair<uint32_t, uint32_t>> fresh;
        for (const auto& [f, t] : ins) {
          if (!r.Test(f, t)) fresh.emplace_back(f, t);
        }
        return BoolCsr::FromEntries(nn, nn, fresh);
      }());
      while (delta.nnz() != 0) {
        r = BoolUnion(r, delta);
        delta = BoolSpGemmDelta(delta, adj, r, parallel_);
      }
      closure = std::make_shared<BoolCsr>(std::move(r));
    }
  } else {
    KGQ_COUNTER_INC("serve.view.rebuild");
    closure = std::make_shared<BoolCsr>(
        ColdClosure(AdjForLabel(*snap, label), parallel_));
  }
  reach_[std::string(label)] = ReachEntry{snap, closure};
  return closure;
}

}  // namespace serve
}  // namespace kgq
