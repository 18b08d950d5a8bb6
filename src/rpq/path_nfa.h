#ifndef KGQ_RPQ_PATH_NFA_H_
#define KGQ_RPQ_PATH_NFA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "rpq/path.h"
#include "rpq/query_automaton.h"
#include "rpq/regex.h"
#include "util/bitset.h"
#include "util/result.h"

namespace kgq {

/// A regular expression compiled against a concrete graph: the product
/// automaton that every algorithm of Section 4.1/4.2 runs on.
///
/// Key facts the algorithms rely on:
///  * A path p = n₀e₁n₁...e_k n_k is itself the "word": the start node
///    followed by (edge, direction) symbols. The node sequence is fully
///    determined by the word, so the only nondeterminism lies in the
///    automaton component — a configuration (node, StateMask) evolves
///    deterministically along a path. Counting distinct paths is exactly
///    the SpanL-complete #NFA problem of Section 4.1.
///  * Node tests are ε-like moves that never change the node; masks held
///    by callers are always ε-closed at their node.
///  * A self-loop traversed forward and backward is the *same* path, so
///    self-loops produce a single step that fires both forward and
///    backward atoms (direction normalization keeps the path↔word map a
///    bijection).
///
/// The automaton component is limited to 64 states (bitmask fast path).
/// With the default Glushkov construction that is one state per regex
/// atom plus one — ample for the paper's queries; Compile fails with
/// Unsupported beyond that.
class PathNfa {
 public:
  /// Set of automaton states, one bit per state.
  using StateMask = uint64_t;

  /// One traversal step: edge `edge` crossed from `from` to `to`,
  /// `backward` iff against the edge's direction.
  struct Step {
    EdgeId edge;
    bool backward;
    NodeId from;
    NodeId to;
  };

  /// Which automaton construction to compile with. Glushkov (default)
  /// uses one state per atom + 1 and no ε-transitions — smaller products
  /// and a higher effective regex-size ceiling; Thompson is the textbook
  /// construction kept for cross-validation.
  enum class Construction { kGlushkov, kThompson };

  /// Compiles `regex` against `view`. Precomputes per-atom match bitsets
  /// and per-node ε-closures; the view must outlive the PathNfa.
  ///
  /// Steps are read from a CsrSnapshot of the view's topology: the
  /// view's memoized one (GraphView::Csr(), built on first use and
  /// trusted without a check), or `snapshot` when given (checked as by
  /// AttachSnapshot; a mismatch fails).
  static Result<PathNfa> Compile(
      const GraphView& view, const Regex& regex,
      Construction construction = Construction::kGlushkov,
      const CsrSnapshot* snapshot = nullptr);

  /// Glushkov Compile on `checked`, whose topology the caller has
  /// checked (the executor does it once per plan, not per atom). Labels
  /// resolve as by AttachSnapshot.
  static Result<PathNfa> CompileOnChecked(const GraphView& view,
                                          const Regex& regex,
                                          const CsrSnapshot& checked);

  /// Re-targets step iteration to `snapshot`, an immutable CSR snapshot
  /// of the compiled view's topology (nullptr: the view's memoized
  /// snapshot). Pure-label edge atoms are resolved to the snapshot's
  /// label partitions so saturating searches (ForEachSuccessor) scan one
  /// contiguous range per transition. Steps come in the same order from
  /// any snapshot of the topology, so every downstream algorithm —
  /// enumeration, the exact DP, FPRAS preprocessing and sampling —
  /// returns bit-identical results whichever is attached.
  ///
  /// Fails with InvalidArgument if the snapshot's topology differs from
  /// the compiled view's (the previous snapshot stays attached). An atom
  /// whose match bitset disagrees with the snapshot's label partition (a
  /// snapshot of a *different* graph that happens to share topology, or
  /// a vector graph's ⊥ labels) falls back to bitset filtering, so a
  /// successful attach never changes results. The snapshot must outlive
  /// this PathNfa.
  Status AttachSnapshot(const CsrSnapshot* snapshot);

  /// The attached snapshot.
  const CsrSnapshot& snapshot() const { return *csr_; }

  /// Number of automaton states.
  size_t num_states() const { return num_q_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edge_fwd_usable_.size(); }

  StateMask final_mask() const { return final_mask_; }
  bool Accepting(StateMask m) const { return (m & final_mask_) != 0; }

  /// ε-closed initial mask at node n (never 0: it contains the start
  /// state itself).
  StateMask StartMask(NodeId n) const { return ClosureRow(n)[start_q_]; }

  /// ε-closure of `m` at node n.
  StateMask CloseAt(NodeId n, StateMask m) const;

  /// Advances a closed mask across a step; the result is closed at
  /// step.to (and may be 0 when the run dies).
  StateMask Advance(StateMask m, const Step& s) const;

  /// Advance of the single state `q` (bit index) across `s`.
  StateMask AdvanceSingle(uint32_t q, const Step& s) const;

  /// {p : q ∈ AdvanceSingle(p, s)} — predecessor states of `q` across
  /// `s`; used by the FPRAS union decomposition.
  StateMask PredMask(uint32_t q, const Step& s) const;

  /// Calls fn(Step) for every step leaving node n that can fire at least
  /// one edge atom: out edges then in edges, ascending edge id.
  /// Self-loops are emitted once (backward = false). Steps entering
  /// `blocked` (or leaving it) are the caller's business — the path
  /// algorithms filter on their own options.
  template <typename Fn>
  void ForEachStep(NodeId n, Fn&& fn) const {
    KGQ_COUNTER_ADD("rpq.step.edges_scanned",
                    csr_->Out(n).size() + csr_->In(n).size());
    for (const CsrSnapshot::Entry& a : csr_->Out(n)) {
      bool self = (a.neighbor == n);
      bool usable = edge_fwd_usable_.Test(a.edge) ||
                    (self && edge_bwd_usable_.Test(a.edge));
      if (usable) fn(Step{a.edge, false, n, a.neighbor});
    }
    for (const CsrSnapshot::Entry& a : csr_->In(n)) {
      if (a.neighbor == n) continue;  // Self-loop emitted as forward.
      if (edge_bwd_usable_.Test(a.edge)) {
        fn(Step{a.edge, true, n, a.neighbor});
      }
    }
  }

  /// Calls fn(Step) for every step arriving at node n (the reverse view
  /// used by the FPRAS layer recurrence).
  template <typename Fn>
  void ForEachStepInto(NodeId n, Fn&& fn) const {
    KGQ_COUNTER_ADD("rpq.step.edges_scanned",
                    csr_->Out(n).size() + csr_->In(n).size());
    for (const CsrSnapshot::Entry& a : csr_->In(n)) {
      bool self = (a.neighbor == n);
      bool usable = edge_fwd_usable_.Test(a.edge) ||
                    (self && edge_bwd_usable_.Test(a.edge));
      if (usable) fn(Step{a.edge, false, a.neighbor, n});
    }
    for (const CsrSnapshot::Entry& a : csr_->Out(n)) {
      if (a.neighbor == n) continue;
      if (edge_bwd_usable_.Test(a.edge)) {
        fn(Step{a.edge, true, a.neighbor, n});
      }
    }
  }

  /// Per-state successor expansion for saturating searches: calls
  /// fn(to_node, to_state) for every (edge step, transition) the single
  /// automaton state `q` can take out of node n — the union over calls
  /// equals { (s.to, bits of AdvanceSingle(q, s) before closure) } over
  /// ForEachStep(n). Callers close the emitted states at to_node.
  ///
  /// Transitions whose atom is a pure label test scan that label's
  /// contiguous partition instead of filtering the node's full
  /// adjacency — the product-graph step the snapshot exists for.
  /// Emission *order* differs from ForEachStep, and a (to_node,
  /// to_state) pair may be emitted once per witnessing edge, so only
  /// order-insensitive saturating consumers (existential reachability)
  /// may use this.
  template <typename Fn>
  void ForEachSuccessor(NodeId n, uint32_t q, Fn&& fn) const {
    for (const EdgeTrans& t : fwd_trans_[q]) {
      LabelId lab = atom_csr_label_[t.atom];
      if (lab == kAtomDead) continue;
      if (lab == kAtomFiltered) {
        CsrSnapshot::Span adj = csr_->Out(n);
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_INC("rpq.successor.bitset_fallback_hits");
          KGQ_COUNTER_ADD("rpq.successor.edges_scanned", adj.size());
        }
        for (const CsrSnapshot::Entry& a : adj) {
          if (edge_match_[t.atom].Test(a.edge)) fn(a.neighbor, t.to);
        }
      } else {
        CsrSnapshot::Span part = csr_->OutForLabel(n, lab);
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_INC("rpq.successor.label_partition_hits");
          KGQ_COUNTER_ADD("rpq.successor.edges_scanned", part.size());
        }
        for (const CsrSnapshot::Entry& a : part) {
          fn(a.neighbor, t.to);
        }
      }
    }
    // Backward atoms scan the in view; self-loops appear there too,
    // matching the "self-loop fires both directions" step semantics.
    for (const EdgeTrans& t : bwd_trans_[q]) {
      LabelId lab = atom_csr_label_[t.atom];
      if (lab == kAtomDead) continue;
      if (lab == kAtomFiltered) {
        CsrSnapshot::Span adj = csr_->In(n);
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_INC("rpq.successor.bitset_fallback_hits");
          KGQ_COUNTER_ADD("rpq.successor.edges_scanned", adj.size());
        }
        for (const CsrSnapshot::Entry& a : adj) {
          if (edge_match_[t.atom].Test(a.edge)) fn(a.neighbor, t.to);
        }
      } else {
        CsrSnapshot::Span part = csr_->InForLabel(n, lab);
        if (KGQ_OBS_ON()) {
          KGQ_COUNTER_INC("rpq.successor.label_partition_hits");
          KGQ_COUNTER_ADD("rpq.successor.edges_scanned", part.size());
        }
        for (const CsrSnapshot::Entry& a : part) {
          fn(a.neighbor, t.to);
        }
      }
    }
  }

  // ---- Product introspection (the matrix engine's view) ----
  //
  // pathalg/matrix_rpq evaluates this product as boolean matrix
  // products instead of configuration BFS; it needs the raw transition
  // structure rather than the step callbacks above. These accessors are
  // read-only views of the compiled automaton; they expose nothing a
  // ForEachSuccessor caller could not observe, just in bulk.

  /// One edge transition of the automaton: state `from` advances to
  /// `to` (before ε-closure at the target node) across any edge matched
  /// by atom `atom`, traversed against the edge's direction iff
  /// `backward`.
  struct TransitionView {
    uint32_t from;
    uint32_t to;
    uint32_t atom;
    bool backward;
  };

  /// All edge transitions, grouped by source state with forward atoms
  /// before backward — the compile order, stable across calls.
  std::vector<TransitionView> Transitions() const;

  /// Number of edge atoms (the index space of TransitionView::atom).
  size_t num_atoms() const { return edge_match_.size(); }

  /// How an atom resolves against the attached snapshot.
  enum class AtomClass {
    kDead,      ///< Matches no edge: the transition never fires.
    kLabel,     ///< Pure label ℓ resolved to a snapshot partition.
    kFiltered,  ///< Arbitrary test: scan adjacency, filter per edge.
  };
  AtomClass ClassifyAtom(uint32_t atom) const;

  /// Snapshot label of a kLabel atom (meaningful only then).
  LabelId AtomSnapshotLabel(uint32_t atom) const {
    return atom_csr_label_[atom];
  }

  /// True iff the atom's match bitset contains edge e — the per-edge
  /// filter of kFiltered atoms.
  bool AtomMatchesEdge(uint32_t atom, EdgeId e) const {
    return edge_match_[atom].Test(e);
  }

  /// ε-closure sharing: nodes with the same node-test signature share
  /// one closure row. SignatureClosure(sig, q) is the ε-closed mask of
  /// {q} at every node whose ClosureSignatureOf is `sig`; rows are
  /// transitively closed, so one application saturates.
  uint32_t ClosureSignatureOf(NodeId n) const { return closure_index_[n]; }
  size_t NumClosureSignatures() const {
    return num_q_ == 0 ? 0 : closure_rows_.size() / num_q_;
  }
  StateMask SignatureClosure(uint32_t sig, uint32_t q) const {
    return closure_rows_[static_cast<size_t>(sig) * num_q_ + q];
  }

  /// Runs the automaton over a whole path; returns the final closed mask
  /// (0 if the run dies or the path is malformed for this graph).
  StateMask Simulate(const Path& p) const;

  /// True iff p ∈ ⟦r⟧ (simulation ends in an accepting mask).
  bool Matches(const Path& p) const { return Accepting(Simulate(p)); }

  /// The graph the query was compiled against.
  const GraphView& view() const { return *view_; }

 private:
  PathNfa() = default;

  // Edge transitions of one automaton state.
  struct EdgeTrans {
    uint32_t atom;  // Index into edge_match_.
    uint32_t to;
  };

  // atom_csr_label_ sentinels: atom matches no edge of the snapshot /
  // atom is not a resolvable pure-label test (filter via edge_match_).
  static constexpr LabelId kAtomDead = 0xFFFFFFFFu;
  static constexpr LabelId kAtomFiltered = 0xFFFFFFFEu;

  /// Remembers the label spelling of the just-pushed edge atom when its
  /// test is a plain ℓ atom (resolved against snapshots at attach time).
  void RecordAtomLabel(const TestExpr& test);

  /// Compile before any snapshot is attached.
  static Result<PathNfa> Build(const GraphView& view, const Regex& regex,
                               Construction construction);

  /// Attaches a snapshot already known to match the view's topology:
  /// resolves the pure-label atoms against it. `own_memo`: the snapshot
  /// is the view's Csr(), whose labels need no check.
  void Attach(const CsrSnapshot& snapshot, bool own_memo);

  const GraphView* view_ = nullptr;
  const CsrSnapshot* csr_ = nullptr;
  size_t num_nodes_ = 0;
  uint32_t num_q_ = 0;
  uint32_t start_q_ = 0;
  StateMask final_mask_ = 0;

  // Per-atom edge match bitsets (shared index space for fwd and bwd
  // atoms), and per-state transition lists by direction.
  std::vector<Bitset> edge_match_;
  std::vector<std::vector<EdgeTrans>> fwd_trans_;  // indexed by state
  std::vector<std::vector<EdgeTrans>> bwd_trans_;

  // Per-atom label spelling when the atom's test is a plain ℓ atom
  // (set at compile time), and its resolution against the attached
  // snapshot (set by Attach).
  std::vector<std::optional<std::string>> atom_pure_label_;
  std::vector<LabelId> atom_csr_label_;

  // Union over atoms of edges usable in each direction.
  Bitset edge_fwd_usable_;
  Bitset edge_bwd_usable_;

  // ε-closures are shared between nodes with the same node-test
  // signature: closure_rows_ holds one row of num_q_ masks per distinct
  // signature, and closure_index_[n] selects a node's row.
  const StateMask* ClosureRow(NodeId n) const {
    return &closure_rows_[static_cast<size_t>(closure_index_[n]) * num_q_];
  }
  std::vector<uint32_t> closure_index_;
  std::vector<StateMask> closure_rows_;
};

}  // namespace kgq

#endif  // KGQ_RPQ_PATH_NFA_H_
