#include "graph/csr_memo.h"

#include <atomic>
#include <mutex>

#include "graph/csr_snapshot.h"
#include "obs/obs.h"

namespace kgq {

struct CsrMemo::Cell {
  std::once_flag once;
  std::unique_ptr<const CsrSnapshot> csr;
  std::atomic<bool> built{false};
};

CsrMemo::CsrMemo() : cell_(std::make_shared<Cell>()) {}

const CsrSnapshot& CsrMemo::Get(
    const std::function<CsrSnapshot()>& build) const {
  Cell& cell = *cell_;
  std::call_once(cell.once, [&] {
    KGQ_COUNTER_INC("graph.csr.memo_builds");
    cell.csr = std::make_unique<const CsrSnapshot>(build());
    cell.built.store(true, std::memory_order_release);
  });
  return *cell.csr;
}

void CsrMemo::Reset() {
  // A cell only this graph holds, and that nobody has built yet, stays:
  // bulk loading pays no allocation per edit. use_count() == 1 cannot
  // change under us — only this graph could hand out another share.
  if (cell_.use_count() == 1 &&
      !cell_->built.load(std::memory_order_acquire)) {
    return;
  }
  cell_ = std::make_shared<Cell>();
}

}  // namespace kgq
