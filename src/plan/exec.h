#ifndef KGQ_PLAN_EXEC_H_
#define KGQ_PLAN_EXEC_H_

#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "plan/ir.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace kgq {

/// Tabular intermediate / final result of plan execution: one column
/// per schema variable, node ids as values.
struct RowSet {
  std::vector<std::string> schema;
  std::vector<std::vector<NodeId>> rows;
};

/// Execution knobs shared by all physical operators.
struct ExecOptions {
  /// Thread budget for the parallel phases (PathAtom pair evaluation
  /// fans out per start node). Results are identical for every thread
  /// count.
  ParallelOptions parallel;
  /// CSR snapshot of the view's topology: EdgeScan reads its label
  /// partitions and PathAtom products step over it. Null, or a snapshot
  /// of another topology (ignored, never trusted), means the view's
  /// memoized one (GraphView::Csr()). Must outlive the call.
  const CsrSnapshot* snapshot = nullptr;
};

/// Executes a logical plan over `view` and returns the projected rows.
/// The root must be the planner's Project (any op works, but only
/// Project canonicalizes: sorted, deduplicated, limited).
///
/// Every operator materializes its output — the memory caveat of
/// ExecuteMatch applies to huge intermediate joins.
///
/// Leaves are evaluated from their bound side when that is cheaper,
/// decided at run time from exact counts (there is no option for it):
///  * Bind join: a HashJoin materializes its left input first and
///    offers its right leaf (an EdgeScan or a regular PathAtom, below
///    any endpoint test Filters) the distinct left values of each join
///    key on the leaf's endpoints.
///  * Label-driven anchor: a test Filter on a leaf endpoint offers the
///    nodes passing the test; a regular PathAtom whose regex starts or
///    ends with a folded `?test` offers that test's nodes for the
///    endpoint. Offers for one endpoint intersect.
///  * An EdgeScan reads the label partitions of the offered endpoint
///    whose partition sizes, exact from the snapshot's offsets, sum to
///    less; it does so only when that sum is below the label's
///    frequency.
///  * A regular PathAtom runs one search per offered node of the
///    endpoint with fewer of them, when they are fewer than the graph's
///    nodes; an atom bound only at its target counts as offering that
///    one node. Target-side searches run the reversed regex
///    (Regex::Reverse). The NFA engine runs the searches in ParallelFor
///    chunks, the matrix engine as one MatrixReachFromAll.
///  * Context-free atoms always compute their whole relation.
/// A bound leaf yields a subset of the whole leaf's rows that loses no
/// row its parent can use, and Project canonicalizes, so the results
/// are bit-identical to whole-graph evaluation. In a profile, a bound
/// leaf keeps its own node and reports engine "<engine>-bound".
///
/// obs: span plan.execute wraps the call with one nested span per
/// operator kind (plan.op.node_scan, plan.op.edge_scan,
/// plan.op.path_atom, plan.op.hash_join, plan.op.filter,
/// plan.op.project); counters plan.rows.<kind> tally rows produced per
/// operator kind, plan.bind.leaves / plan.bind.keys the leaves run from
/// offered keys and their key counts; histograms plan.join.build_rows /
/// plan.join.probe_hits record hash-join build sizes and per-probe
/// match counts.
Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options = {});

}  // namespace kgq

#endif  // KGQ_PLAN_EXEC_H_
