#include "oracles/match_reference.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "oracles/cfpq_reference.h"
#include "pathalg/pairs.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"

namespace kgq {

Result<QueryResult> ExecuteMatch(const GraphView& view,
                                 const MatchQuery& query) {
  if (query.paths.empty() || query.nodes.size() != query.paths.size() + 1) {
    return Status::InvalidArgument("malformed MATCH chain");
  }
  // Per hop: wrap the path with both endpoints' node restrictions and
  // evaluate pair semantics.
  std::vector<std::vector<Bitset>> hops;
  hops.reserve(query.paths.size());
  for (size_t i = 0; i < query.paths.size(); ++i) {
    if (query.paths[i]->kind() == PathExpr::Kind::kContextFree) {
      // Context-free hop: the naive reference relation with endpoint
      // tests masked onto it (grammar relations cannot absorb node
      // tests the way regexes fold them).
      KGQ_ASSIGN_OR_RETURN(
          std::vector<Bitset> rel,
          CfpqReferenceRelation(view, *query.paths[i]->grammar(),
                                query.paths[i]->nonterminal()));
      if (query.nodes[i].test) {
        Bitset ok = MatchNodes(view, *query.nodes[i].test);
        for (size_t u = 0; u < rel.size(); ++u) {
          if (!ok.Test(u)) rel[u].ClearAll();
        }
      }
      if (query.nodes[i + 1].test) {
        Bitset ok = MatchNodes(view, *query.nodes[i + 1].test);
        for (Bitset& row : rel) row &= ok;
      }
      hops.push_back(std::move(rel));
      continue;
    }
    RegexPtr full = query.paths[i]->regex();
    if (query.nodes[i].test) {
      full = Regex::Concat(Regex::NodeTest(query.nodes[i].test),
                           std::move(full));
    }
    if (query.nodes[i + 1].test) {
      full = Regex::Concat(std::move(full),
                           Regex::NodeTest(query.nodes[i + 1].test));
    }
    KGQ_ASSIGN_OR_RETURN(PathNfa nfa, PathNfa::Compile(view, *full));
    hops.push_back(AllPairs(nfa));
  }

  // Join hop relations left to right by DFS over variable assignments.
  QueryResult result;
  result.columns = query.returns;
  std::vector<std::vector<NodeId>> rows;
  std::vector<NodeId> assignment(query.nodes.size(), kNoNode);

  // Map RETURN vars to chain positions.
  std::vector<size_t> return_pos;
  for (const std::string& var : query.returns) {
    for (size_t i = 0; i < query.nodes.size(); ++i) {
      if (query.nodes[i].var == var) {
        return_pos.push_back(i);
        break;
      }
    }
  }

  std::function<void(size_t)> extend = [&](size_t next_var) {
    if (next_var == query.nodes.size()) {
      std::vector<NodeId> row;
      row.reserve(return_pos.size());
      for (size_t pos : return_pos) row.push_back(assignment[pos]);
      rows.push_back(std::move(row));
      return;
    }
    const std::vector<Bitset>& relation = hops[next_var - 1];
    relation[assignment[next_var - 1]].ForEach([&](size_t b) {
      assignment[next_var] = static_cast<NodeId>(b);
      extend(next_var + 1);
    });
  };
  for (NodeId a = 0; a < view.num_nodes(); ++a) {
    if (hops[0][a].None()) continue;
    assignment[0] = a;
    extend(1);
  }

  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (query.limit > 0 && rows.size() > query.limit) {
    rows.resize(query.limit);
  }
  result.rows = std::move(rows);
  return result;
}

}  // namespace kgq
