#include "oracles/cfpq_reference.h"

#include <cstddef>

namespace kgq {

Result<std::vector<Bitset>> CfpqReferenceRelation(const GraphView& view,
                                                  const CnfGrammar& grammar,
                                                  uint32_t nonterminal) {
  if (nonterminal >= grammar.num_nonterminals()) {
    return Status::InvalidArgument("nonterminal id out of range");
  }
  const size_t n = view.num_nodes();
  const size_t nts = grammar.num_nonterminals();
  std::vector<std::vector<Bitset>> rel(nts,
                                       std::vector<Bitset>(n, Bitset(n)));

  // Seeds: nullable diagonals and terminal edge scans.
  for (uint32_t a = 0; a < nts; ++a) {
    if (!grammar.nullable(a)) continue;
    for (size_t u = 0; u < n; ++u) rel[a][u].Set(u);
  }
  const Multigraph& g = view.topology();
  for (const CnfGrammar::TermProd& t : grammar.term_prods()) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!view.EdgeLabelIs(e, t.label)) continue;
      NodeId u = g.EdgeSource(e), v = g.EdgeTarget(e);
      if (t.backward) {
        rel[t.lhs][v].Set(u);
      } else {
        rel[t.lhs][u].Set(v);
      }
    }
  }

  // Naive fixpoint: re-apply every unit and binary production over the
  // full relations until a whole round adds nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CnfGrammar::UnitProd& p : grammar.unit_prods()) {
      for (size_t u = 0; u < n; ++u) {
        Bitset next = rel[p.lhs][u] | rel[p.rhs][u];
        if (next != rel[p.lhs][u]) {
          rel[p.lhs][u] = std::move(next);
          changed = true;
        }
      }
    }
    for (const CnfGrammar::BinProd& p : grammar.bin_prods()) {
      for (size_t u = 0; u < n; ++u) {
        Bitset next = rel[p.lhs][u];
        rel[p.left][u].ForEach(
            [&](size_t mid) { next |= rel[p.right][mid]; });
        if (next != rel[p.lhs][u]) {
          rel[p.lhs][u] = std::move(next);
          changed = true;
        }
      }
    }
  }
  return std::move(rel[nonterminal]);
}

}  // namespace kgq
