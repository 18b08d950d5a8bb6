#ifndef KGQ_PATHALG_OPTIONS_H_
#define KGQ_PATHALG_OPTIONS_H_

#include "graph/multigraph.h"
#include "util/thread_pool.h"

namespace kgq {

/// Which physical engine evaluates saturating (existential) queries —
/// ReachableFrom / AllPairs and the ReachTable layers.
enum class PathEngine {
  /// Product-configuration BFS per source over the PathNfa (the
  /// reference engine; always available).
  kNfa,
  /// Boolean-semiring matrix fixpoint (pathalg/matrix_rpq): one masked
  /// SpGEMM per iteration over the NFA's CsrSnapshot covers every
  /// source at once, 64 sources per machine word.
  kMatrix,
};

/// Restrictions shared by all path algorithms. The unrestricted problem
/// of Section 4.1 uses the defaults; the bc_r computation of Section 4.2
/// uses all three fields (paths from a to b, optionally avoiding x —
/// through-x counts are computed as total minus avoiding).
struct PathQueryOptions {
  /// If set, only paths with start(p) == start.
  NodeId start = kNoNode;
  /// If set, only paths with end(p) == end.
  NodeId end = kNoNode;
  /// If set, only paths that never visit this node.
  NodeId avoid = kNoNode;
  /// Thread budget for the parallel phases (ReachTable layers,
  /// multi-source pair evaluation). Results are identical for every
  /// thread count; see ParallelOptions.
  ParallelOptions parallel;
  /// Physical engine for the saturating entry points. Both engines are
  /// bit-identical (tests/test_regex_fuzz.cc five-way); kMatrix is the
  /// raw-speed play for bulk multi-source workloads.
  PathEngine engine = PathEngine::kNfa;
};

}  // namespace kgq

#endif  // KGQ_PATHALG_OPTIONS_H_
