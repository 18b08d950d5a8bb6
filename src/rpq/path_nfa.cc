#include "rpq/path_nfa.h"

#include <cassert>
#include <unordered_map>

#include "rpq/test_eval.h"

namespace kgq {

Result<PathNfa> PathNfa::Compile(const GraphView& view, const Regex& regex,
                                 Construction construction,
                                 const CsrSnapshot* snapshot) {
  KGQ_ASSIGN_OR_RETURN(PathNfa nfa, Build(view, regex, construction));
  if (snapshot != nullptr) {
    KGQ_RETURN_IF_ERROR(nfa.AttachSnapshot(snapshot));
  } else {
    nfa.Attach(view.Csr(), /*own_memo=*/true);
  }
  return nfa;
}

Result<PathNfa> PathNfa::CompileOnChecked(const GraphView& view,
                                          const Regex& regex,
                                          const CsrSnapshot& checked) {
  KGQ_ASSIGN_OR_RETURN(PathNfa nfa,
                       Build(view, regex, Construction::kGlushkov));
  nfa.Attach(checked, /*own_memo=*/false);
  return nfa;
}

Result<PathNfa> PathNfa::Build(const GraphView& view, const Regex& regex,
                               Construction construction) {
  KGQ_SPAN("rpq.compile");
  KGQ_COUNTER_INC("rpq.compile.calls");
  QueryAutomaton qa = construction == Construction::kGlushkov
                          ? QueryAutomaton::FromRegexGlushkov(regex)
                          : QueryAutomaton::FromRegex(regex);
  if (qa.num_states() > 64) {
    return Status::Unsupported(
        "regular expression compiles to " + std::to_string(qa.num_states()) +
        " automaton states; the product engine supports at most 64");
  }

  PathNfa nfa;
  nfa.view_ = &view;
  nfa.num_nodes_ = view.num_nodes();
  nfa.num_q_ = static_cast<uint32_t>(qa.num_states());
  nfa.start_q_ = qa.start();
  nfa.final_mask_ = 0;
  for (uint32_t f : qa.accepting()) nfa.final_mask_ |= 1ull << f;
  nfa.fwd_trans_.resize(nfa.num_q_);
  nfa.bwd_trans_.resize(nfa.num_q_);
  nfa.edge_fwd_usable_ = Bitset(view.num_edges());
  nfa.edge_bwd_usable_ = Bitset(view.num_edges());

  // Node-test transitions become per-node conditional ε edges; pure ε
  // transitions are unconditional. Collect both for closure computation.
  struct NodeTrans {
    uint32_t from;
    uint32_t to;
    int match;  // Index into node_match, or -1 for unconditional ε.
  };
  std::vector<NodeTrans> node_trans;
  std::vector<Bitset> node_match;

  for (uint32_t q = 0; q < nfa.num_q_; ++q) {
    for (const QueryAutomaton::Transition& t : qa.OutTransitions(q)) {
      if (t.atom < 0) {
        node_trans.push_back({q, t.to, -1});
        continue;
      }
      const QueryAtom& atom = qa.atoms()[t.atom];
      switch (atom.kind) {
        case QueryAtom::Kind::kNodeTest: {
          node_match.push_back(MatchNodes(view, *atom.test));
          node_trans.push_back(
              {q, t.to, static_cast<int>(node_match.size() - 1)});
          break;
        }
        case QueryAtom::Kind::kEdgeFwd: {
          Bitset match = MatchEdges(view, *atom.test);
          nfa.edge_fwd_usable_ |= match;
          nfa.edge_match_.push_back(std::move(match));
          nfa.RecordAtomLabel(*atom.test);
          nfa.fwd_trans_[q].push_back(
              {static_cast<uint32_t>(nfa.edge_match_.size() - 1), t.to});
          break;
        }
        case QueryAtom::Kind::kEdgeBwd: {
          Bitset match = MatchEdges(view, *atom.test);
          nfa.edge_bwd_usable_ |= match;
          nfa.edge_match_.push_back(std::move(match));
          nfa.RecordAtomLabel(*atom.test);
          nfa.bwd_trans_[q].push_back(
              {static_cast<uint32_t>(nfa.edge_match_.size() - 1), t.to});
          break;
        }
      }
    }
  }

  // Per-node ε-closures. The closure at a node depends only on *which*
  // node-test atoms pass there, so closures are computed once per
  // signature (set of passing atoms) and shared across nodes.
  assert(node_match.size() <= 64);
  std::unordered_map<uint64_t, uint32_t> sig_index;
  nfa.closure_index_.assign(nfa.num_nodes_, 0);
  for (NodeId n = 0; n < nfa.num_nodes_; ++n) {
    uint64_t sig = 0;
    for (size_t a = 0; a < node_match.size(); ++a) {
      if (node_match[a].Test(n)) sig |= 1ull << a;
    }
    auto [it, inserted] = sig_index.emplace(
        sig, static_cast<uint32_t>(sig_index.size()));
    nfa.closure_index_[n] = it->second;
    if (!inserted) continue;

    // New signature: build and close its row.
    size_t base = nfa.closure_rows_.size();
    nfa.closure_rows_.resize(base + nfa.num_q_, 0);
    StateMask* row = &nfa.closure_rows_[base];
    for (uint32_t q = 0; q < nfa.num_q_; ++q) row[q] = 1ull << q;
    for (const NodeTrans& t : node_trans) {
      if (t.match >= 0 && (sig & (1ull << t.match)) == 0) continue;
      row[t.from] |= 1ull << t.to;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t q = 0; q < nfa.num_q_; ++q) {
        StateMask expanded = row[q];
        StateMask rest = row[q];
        while (rest != 0) {
          uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(rest));
          rest &= rest - 1;
          expanded |= row[bit];
        }
        if (expanded != row[q]) {
          row[q] = expanded;
          changed = true;
        }
      }
    }
  }
  return nfa;
}

void PathNfa::RecordAtomLabel(const TestExpr& test) {
  if (test.kind() == TestExpr::Kind::kLabel) {
    atom_pure_label_.push_back(test.label());
  } else {
    atom_pure_label_.push_back(std::nullopt);
  }
}

Status PathNfa::AttachSnapshot(const CsrSnapshot* snapshot) {
  if (snapshot == nullptr) {
    Attach(view_->Csr(), /*own_memo=*/true);
    return Status::OK();
  }
  KGQ_COUNTER_INC("rpq.snapshot_attaches");
  if (!snapshot->MatchesTopology(view_->topology())) {
    return Status::InvalidArgument(
        "CsrSnapshot topology does not match the compiled graph (" +
        std::to_string(snapshot->num_nodes()) + " nodes / " +
        std::to_string(snapshot->num_edges()) + " edges vs " +
        std::to_string(num_nodes_) + " / " +
        std::to_string(view_->num_edges()) + ")");
  }
  Attach(*snapshot, /*own_memo=*/false);
  return Status::OK();
}

void PathNfa::Attach(const CsrSnapshot& snapshot, bool own_memo) {
  // Resolve pure-label atoms to the snapshot's dense label ids. The
  // view's own memo spells its labels by the GraphView contract: a
  // label the view resolves has exactly its partition's edges, one it
  // does not (a vector graph's ⊥) has none. Any other snapshot's
  // partition is only trusted when it reproduces the compiled match
  // bitset exactly — snapshots of the graph the query was compiled
  // against pass; a topology-equal snapshot with different labels
  // degrades to bitset filtering instead of changing results.
  size_t m = view_->num_edges();
  atom_csr_label_.assign(edge_match_.size(), kAtomFiltered);
  for (size_t a = 0; a < edge_match_.size(); ++a) {
    if (!atom_pure_label_[a].has_value()) continue;
    std::optional<LabelId> lab = snapshot.FindLabel(*atom_pure_label_[a]);
    if (!lab.has_value() ||
        (own_memo && !view_->ResolveLabel(*atom_pure_label_[a]))) {
      if (edge_match_[a].None()) atom_csr_label_[a] = kAtomDead;
      continue;
    }
    bool exact = true;
    if (!own_memo) {
      for (EdgeId e = 0; e < m && exact; ++e) {
        exact = (edge_match_[a].Test(e) == (snapshot.EdgeLabel(e) == *lab));
      }
    }
    if (exact) atom_csr_label_[a] = *lab;
  }
  csr_ = &snapshot;
}

std::vector<PathNfa::TransitionView> PathNfa::Transitions() const {
  std::vector<TransitionView> out;
  for (uint32_t q = 0; q < num_q_; ++q) {
    for (const EdgeTrans& t : fwd_trans_[q]) {
      out.push_back({q, t.to, t.atom, false});
    }
    for (const EdgeTrans& t : bwd_trans_[q]) {
      out.push_back({q, t.to, t.atom, true});
    }
  }
  return out;
}

PathNfa::AtomClass PathNfa::ClassifyAtom(uint32_t atom) const {
  LabelId l = atom_csr_label_[atom];
  if (l == kAtomDead) return AtomClass::kDead;
  if (l == kAtomFiltered) {
    return edge_match_[atom].None() ? AtomClass::kDead : AtomClass::kFiltered;
  }
  return AtomClass::kLabel;
}

PathNfa::StateMask PathNfa::CloseAt(NodeId n, StateMask m) const {
  const StateMask* row = ClosureRow(n);
  StateMask out = 0;
  while (m != 0) {
    uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(m));
    m &= m - 1;
    out |= row[bit];
  }
  return out;
}

PathNfa::StateMask PathNfa::Advance(StateMask m, const Step& s) const {
  bool self = (s.from == s.to);
  StateMask raw = 0;
  StateMask rest = m;
  while (rest != 0) {
    uint32_t q = static_cast<uint32_t>(__builtin_ctzll(rest));
    rest &= rest - 1;
    if (!s.backward || self) {
      for (const EdgeTrans& t : fwd_trans_[q]) {
        if (edge_match_[t.atom].Test(s.edge)) raw |= 1ull << t.to;
      }
    }
    if (s.backward || self) {
      for (const EdgeTrans& t : bwd_trans_[q]) {
        if (edge_match_[t.atom].Test(s.edge)) raw |= 1ull << t.to;
      }
    }
  }
  if (raw == 0) return 0;
  return CloseAt(s.to, raw);
}

PathNfa::StateMask PathNfa::AdvanceSingle(uint32_t q, const Step& s) const {
  return Advance(1ull << q, s);
}

PathNfa::StateMask PathNfa::PredMask(uint32_t q, const Step& s) const {
  StateMask out = 0;
  for (uint32_t p = 0; p < num_q_; ++p) {
    if (AdvanceSingle(p, s) & (1ull << q)) out |= 1ull << p;
  }
  return out;
}

PathNfa::StateMask PathNfa::Simulate(const Path& p) const {
  if (p.nodes.empty()) return 0;
  const Multigraph& g = view_->topology();
  if (!p.IsValidIn(g)) return 0;
  StateMask m = StartMask(p.nodes[0]);
  for (size_t i = 0; i < p.edges.size(); ++i) {
    EdgeId e = p.edges[i];
    NodeId from = p.nodes[i];
    NodeId to = p.nodes[i + 1];
    // Direction: backward iff the edge is traversed target→source. For
    // self-loops the flag is irrelevant (Advance fires both directions).
    bool backward = !(g.EdgeSource(e) == from && g.EdgeTarget(e) == to);
    m = Advance(m, Step{e, backward, from, to});
    if (m == 0) return 0;
  }
  return m;
}

}  // namespace kgq
