#include "query/match_query.h"

#include <cstdlib>
#include <utility>

#include "rpq/parser.h"
#include "rpq/path_expr.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

/// Parses `(var)` or `(var: test)`.
Result<std::pair<std::string, TestPtr>> ParseNodePattern(TextScanner* scan) {
  if (!scan->AcceptChar('(')) {
    return Status::ParseError("expected '(' at position " +
                              std::to_string(scan->pos()));
  }
  KGQ_ASSIGN_OR_RETURN(std::string var, scan->TakeIdentifier());
  TestPtr test;
  if (scan->AcceptChar(':')) {
    KGQ_ASSIGN_OR_RETURN(std::string raw, scan->TakeUntilNodeClose());
    KGQ_ASSIGN_OR_RETURN(test, ParseTest(raw));
  } else if (!scan->AcceptChar(')')) {
    return Status::ParseError("expected ')' after node variable");
  }
  return std::make_pair(std::move(var), std::move(test));
}

}  // namespace

std::string MatchQuery::ToString() const {
  std::string out;
  for (const CnfGrammarPtr& g : grammars) {
    out += g->surface().ToString() + " ";
  }
  out += "MATCH ";
  for (size_t i = 0; i < nodes.size(); ++i) {
    out += "(" + nodes[i].var;
    if (nodes[i].test) out += ": " + nodes[i].test->ToString();
    out += ")";
    if (i < paths.size()) out += " -[ " + paths[i]->ToString() + " ]-> ";
  }
  out += " RETURN ";
  for (size_t i = 0; i < returns.size(); ++i) {
    if (i > 0) out += ", ";
    out += returns[i];
  }
  if (limit > 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

Result<MatchQuery> ParseMatchQuery(std::string_view text) {
  TextScanner scan(text);
  MatchQuery query;
  while (scan.AcceptKeyword("GRAMMAR")) {
    KGQ_ASSIGN_OR_RETURN(CfGrammar surface, ParseGrammarBlock(&scan));
    for (const CnfGrammarPtr& g : query.grammars) {
      if (g->name() == surface.name) {
        return Status::ParseError("duplicate grammar '" + surface.name +
                                  "'");
      }
    }
    KGQ_ASSIGN_OR_RETURN(CnfGrammarPtr g, CnfGrammar::Normalize(surface));
    query.grammars.push_back(std::move(g));
  }
  if (!scan.AcceptKeyword("MATCH")) {
    return Status::ParseError("query must start with MATCH");
  }
  {
    KGQ_ASSIGN_OR_RETURN(auto first, ParseNodePattern(&scan));
    query.nodes.push_back({std::move(first.first), std::move(first.second)});
  }
  while (scan.AcceptSeq("-[")) {
    KGQ_ASSIGN_OR_RETURN(std::string raw, scan.TakeUntilPathClose());
    KGQ_ASSIGN_OR_RETURN(PathExprPtr path,
                         ResolvePathExpr(raw, query.grammars));
    query.paths.push_back(std::move(path));
    KGQ_ASSIGN_OR_RETURN(auto next, ParseNodePattern(&scan));
    query.nodes.push_back({std::move(next.first), std::move(next.second)});
  }
  if (query.paths.empty()) {
    return Status::ParseError("expected at least one '-[ path ]->' hop");
  }
  for (size_t i = 0; i < query.nodes.size(); ++i) {
    for (size_t j = i + 1; j < query.nodes.size(); ++j) {
      if (query.nodes[i].var == query.nodes[j].var) {
        return Status::ParseError("variable '" + query.nodes[i].var +
                                  "' declared twice");
      }
    }
  }

  auto slot_of = [&](const std::string& var) -> TestPtr* {
    for (NodePattern& np : query.nodes) {
      if (np.var == var) return &np.test;
    }
    return nullptr;
  };

  // WHERE var.prop = value (AND ...)*.
  if (scan.AcceptKeyword("WHERE")) {
    do {
      KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
      if (!scan.AcceptChar('.')) {
        return Status::ParseError("expected '.' in WHERE condition");
      }
      KGQ_ASSIGN_OR_RETURN(std::string prop, scan.TakeIdentifier());
      if (!scan.AcceptChar('=')) {
        return Status::ParseError("expected '=' in WHERE condition");
      }
      KGQ_ASSIGN_OR_RETURN(std::string value, scan.TakeValue());
      TestPtr* slot = slot_of(var);
      if (slot == nullptr) {
        return Status::ParseError("WHERE references unknown variable '" +
                                  var + "'");
      }
      TestPtr cond = TestExpr::PropEq(std::move(prop), std::move(value));
      *slot = *slot ? TestExpr::And(*slot, std::move(cond))
                    : std::move(cond);
    } while (scan.AcceptKeyword("AND"));
  }

  if (!scan.AcceptKeyword("RETURN")) {
    return Status::ParseError("expected RETURN clause");
  }
  do {
    KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
    if (slot_of(var) == nullptr) {
      return Status::ParseError("RETURN references unknown variable '" +
                                var + "'");
    }
    query.returns.push_back(std::move(var));
  } while (scan.AcceptChar(','));

  if (scan.AcceptKeyword("LIMIT")) {
    KGQ_ASSIGN_OR_RETURN(std::string num, scan.TakeIdentifier());
    char* end = nullptr;
    query.limit = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || query.limit == 0) {
      return Status::ParseError("LIMIT expects a positive integer");
    }
  }
  if (!scan.AtEnd()) {
    return Status::ParseError("trailing input after query (position " +
                              std::to_string(scan.pos()) + ")");
  }
  return query;
}

Result<ConjunctiveQuery> CompileMatch(const MatchQuery& query) {
  if (query.paths.empty() || query.nodes.size() != query.paths.size() + 1) {
    return Status::InvalidArgument("malformed MATCH chain");
  }
  ConjunctiveQuery cq;
  for (size_t i = 0; i < query.paths.size(); ++i) {
    cq.atoms.push_back(
        {query.nodes[i].var, query.nodes[i + 1].var, query.paths[i]});
  }
  for (const NodePattern& np : query.nodes) {
    if (np.test) cq.node_tests[np.var] = np.test;
  }
  cq.projection = query.returns;
  cq.limit = query.limit;
  return cq;
}

Result<QueryResult> ExecuteMatchPlanned(const GraphView& view,
                                        const MatchQuery& query,
                                        const QueryOptions& options) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileMatch(query));
  KGQ_ASSIGN_OR_RETURN(RowSet rows, EvalQuery(view, cq, options));
  QueryResult result;
  result.columns = std::move(rows.schema);
  result.rows = std::move(rows.rows);
  return result;
}

Result<QueryResult> RunMatch(const GraphView& view, std::string_view text) {
  KGQ_ASSIGN_OR_RETURN(MatchQuery query, ParseMatchQuery(text));
  return ExecuteMatchPlanned(view, query);
}

}  // namespace kgq
