#ifndef KGQ_GRAPH_CSR_MEMO_H_
#define KGQ_GRAPH_CSR_MEMO_H_

#include <functional>
#include <memory>

namespace kgq {

class CsrSnapshot;

/// The lazily built CsrSnapshot of one graph model: built by the first
/// Get, once, whichever thread asks first; every later Get returns the
/// same object until the graph is edited.
///
/// The cell is shared between copies of a graph (the pattern of
/// EpochSnapshot::LazyGraph in serve/delta_store.h), so copying a graph
/// never copies or rebuilds its snapshot. The models are append-only,
/// so an edit never patches a built snapshot: the model calls Reset,
/// which swaps in a fresh cell whenever the current one is built or
/// shared. A copy taken before the edit keeps the old cell and never
/// sees the edit.
///
/// obs: counter graph.csr.memo_builds counts snapshots built here.
class CsrMemo {
 public:
  CsrMemo();
  // Copies share the cell. There is deliberately no move constructor:
  // a moved-from graph keeps a cell too, so it stays usable.
  CsrMemo(const CsrMemo&) = default;
  CsrMemo& operator=(const CsrMemo&) = default;

  /// The memoized snapshot; runs `build` on the first call only.
  /// Thread-safe against concurrent Get calls.
  const CsrSnapshot& Get(const std::function<CsrSnapshot()>& build) const;

  /// Called by the owning model on every edit, before the change.
  void Reset();

 private:
  struct Cell;
  std::shared_ptr<Cell> cell_;
};

}  // namespace kgq

#endif  // KGQ_GRAPH_CSR_MEMO_H_
