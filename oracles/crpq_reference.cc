#include "oracles/crpq_reference.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "oracles/cfpq_reference.h"
#include "pathalg/pairs.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"

namespace kgq {

Result<RowSet> EvalCrpqReference(const GraphView& view, const Crpq& q) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileCrpq(q));
  const size_t n = view.num_nodes();

  // Per-atom pair relations, endpoint tests folded into the regex the
  // same way ExecuteMatch does. Diagonal atoms fold the source test
  // only: the x==y constraint makes it cover both endpoints.
  std::vector<std::vector<Bitset>> rels;
  rels.reserve(cq.atoms.size());
  for (const PatternAtom& a : cq.atoms) {
    if (a.path->kind() == PathExpr::Kind::kContextFree) {
      // Context-free atom: the naive reference relation, with endpoint
      // tests masked onto it (grammar relations cannot absorb tests
      // into the path the way regexes fold them).
      KGQ_ASSIGN_OR_RETURN(
          std::vector<Bitset> rel,
          CfpqReferenceRelation(view, *a.path->grammar(),
                                a.path->nonterminal()));
      auto it = cq.node_tests.find(a.src);
      if (it != cq.node_tests.end()) {
        Bitset ok = MatchNodes(view, *it->second);
        for (size_t u = 0; u < rel.size(); ++u) {
          if (!ok.Test(u)) rel[u].ClearAll();
        }
      }
      if (a.dst != a.src) {
        it = cq.node_tests.find(a.dst);
        if (it != cq.node_tests.end()) {
          Bitset ok = MatchNodes(view, *it->second);
          for (Bitset& row : rel) row &= ok;
        }
      }
      rels.push_back(std::move(rel));
      continue;
    }
    RegexPtr full = a.path->regex();
    auto it = cq.node_tests.find(a.src);
    if (it != cq.node_tests.end()) {
      full = Regex::Concat(Regex::NodeTest(it->second), std::move(full));
    }
    if (a.dst != a.src) {
      it = cq.node_tests.find(a.dst);
      if (it != cq.node_tests.end()) {
        full = Regex::Concat(std::move(full), Regex::NodeTest(it->second));
      }
    }
    KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, *full));
    rels.push_back(AllPairs(nfa));
  }

  // Variable universe in first-appearance order; test-only variables
  // come last and are extended by node scans after the joins.
  std::vector<std::string> vars;
  std::map<std::string, size_t> idx;
  auto declare = [&](const std::string& v) {
    if (idx.emplace(v, vars.size()).second) vars.push_back(v);
  };
  for (const PatternAtom& a : cq.atoms) {
    declare(a.src);
    declare(a.dst);
  }
  std::set<std::string> in_atoms(vars.begin(), vars.end());
  for (const auto& [var, test] : cq.node_tests) declare(var);

  std::vector<size_t> scan_vars;
  std::vector<Bitset> scan_sets;
  for (const auto& [var, test] : cq.node_tests) {
    if (in_atoms.count(var) > 0) continue;
    scan_vars.push_back(idx[var]);
    scan_sets.push_back(MatchNodes(view, *test));
  }

  std::vector<size_t> head_pos;
  head_pos.reserve(cq.projection.size());
  for (const std::string& h : cq.projection) head_pos.push_back(idx[h]);

  std::vector<NodeId> assign(vars.size(), kNoNode);
  std::vector<char> is_set(vars.size(), 0);
  std::vector<std::vector<NodeId>> rows;

  std::function<void(size_t)> emit_scans = [&](size_t k) {
    if (k == scan_vars.size()) {
      std::vector<NodeId> row;
      row.reserve(head_pos.size());
      for (size_t pos : head_pos) row.push_back(assign[pos]);
      rows.push_back(std::move(row));
      return;
    }
    scan_sets[k].ForEach([&](size_t v) {
      assign[scan_vars[k]] = static_cast<NodeId>(v);
      emit_scans(k + 1);
    });
  };

  std::function<void(size_t)> join = [&](size_t ai) {
    if (ai == cq.atoms.size()) {
      emit_scans(0);
      return;
    }
    const PatternAtom& a = cq.atoms[ai];
    const std::vector<Bitset>& rel = rels[ai];
    size_t si = idx[a.src];
    size_t di = idx[a.dst];
    bool diag = (si == di);
    if (is_set[si] && (diag || is_set[di])) {
      NodeId x = assign[si];
      NodeId y = diag ? x : assign[di];
      if (rel[x].Test(y)) join(ai + 1);
    } else if (is_set[si]) {
      rel[assign[si]].ForEach([&](size_t b) {
        assign[di] = static_cast<NodeId>(b);
        is_set[di] = 1;
        join(ai + 1);
        is_set[di] = 0;
      });
    } else if (!diag && is_set[di]) {
      for (NodeId x = 0; x < n; ++x) {
        if (!rel[x].Test(assign[di])) continue;
        assign[si] = x;
        is_set[si] = 1;
        join(ai + 1);
        is_set[si] = 0;
      }
    } else {
      for (NodeId x = 0; x < n; ++x) {
        if (diag) {
          if (!rel[x].Test(x)) continue;
          assign[si] = x;
          is_set[si] = 1;
          join(ai + 1);
          is_set[si] = 0;
        } else {
          rel[x].ForEach([&](size_t b) {
            assign[si] = x;
            assign[di] = static_cast<NodeId>(b);
            is_set[si] = is_set[di] = 1;
            join(ai + 1);
            is_set[si] = is_set[di] = 0;
          });
        }
      }
    }
  };
  join(0);

  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (cq.limit > 0 && rows.size() > cq.limit) rows.resize(cq.limit);

  RowSet out;
  out.schema = cq.projection;
  out.rows = std::move(rows);
  return out;
}

}  // namespace kgq
