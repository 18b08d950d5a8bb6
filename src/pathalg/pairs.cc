#include "pathalg/pairs.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "pathalg/matrix_rpq.h"
#include "util/thread_pool.h"

namespace kgq {

Bitset ReachableFrom(const PathNfa& nfa, NodeId start,
                     const PathQueryOptions& opts) {
  if (opts.engine == PathEngine::kMatrix) {
    return MatrixReachableFrom(nfa, start, opts);
  }
  Bitset out(nfa.num_nodes());
  if (opts.avoid != kNoNode && start == opts.avoid) return out;
  if (opts.start != kNoNode && start != opts.start) return out;

  // Existential semantics only asks whether *some* run reaches a final
  // state, so a BFS over single product states (node, q) suffices — no
  // subset construction, O(n·|Q|) states total.
  std::vector<PathNfa::StateMask> seen(nfa.num_nodes(), 0);
  std::vector<std::pair<NodeId, uint32_t>> frontier;

  PathNfa::StateMask final_mask = nfa.final_mask();
  auto push = [&](NodeId n, PathNfa::StateMask mask) {
    PathNfa::StateMask fresh = mask & ~seen[n];
    if (fresh == 0) return;
    seen[n] |= fresh;
    if (fresh & final_mask) out.Set(n);
    while (fresh != 0) {
      uint32_t q = static_cast<uint32_t>(__builtin_ctzll(fresh));
      fresh &= fresh - 1;
      frontier.emplace_back(n, q);
    }
  };

  // Expansion goes per automaton state (ForEachSuccessor) rather than
  // per step: each pure-label transition scans one contiguous
  // per-label range. Saturation makes the discovery order irrelevant —
  // `seen` converges to the same fixpoint as a step-at-a-time search.
  push(start, nfa.StartMask(start));
  while (!frontier.empty()) {
    auto [n, q] = frontier.back();
    frontier.pop_back();
    nfa.ForEachSuccessor(n, q, [&](NodeId to, uint32_t to_state) {
      if (opts.avoid != kNoNode && to == opts.avoid) return;
      push(to, nfa.CloseAt(to, 1ull << to_state));
    });
  }

  if (opts.end != kNoNode) {
    Bitset only_end(nfa.num_nodes());
    if (out.Test(opts.end)) only_end.Set(opts.end);
    return only_end;
  }
  return out;
}

std::vector<Bitset> AllPairs(const PathNfa& nfa,
                             const PathQueryOptions& opts) {
  size_t n = nfa.num_nodes();
  // Engine dispatch: all-pairs is the workload the matrix engine exists
  // for — every node is a source, so 64 searches share each word-OR of
  // the fixpoint instead of running 64 separate BFS traversals.
  if (opts.engine == PathEngine::kMatrix && opts.start == kNoNode) {
    return MatrixAllPairs(nfa, opts);
  }
  std::vector<Bitset> out(n);
  // Chunked multi-source evaluation: each source BFS is independent and
  // writes only its own row, so source chunks run in parallel. Rows are
  // exact bit sets — the schedule cannot change the result.
  size_t grain = std::max<size_t>(1, (n + 127) / 128);
  ParallelFor(
      0, n, grain,
      [&](size_t lo, size_t hi) {
        for (NodeId a = lo; a < hi; ++a) {
          if (opts.start != kNoNode && a != opts.start) {
            out[a] = Bitset(n);
          } else {
            out[a] = ReachableFrom(nfa, a, opts);
          }
        }
      },
      opts.parallel);
  return out;
}

double CountPairs(const PathNfa& nfa, const PathQueryOptions& opts) {
  double total = 0.0;
  for (const Bitset& row : AllPairs(nfa, opts)) {
    total += static_cast<double>(row.Count());
  }
  return total;
}

}  // namespace kgq
