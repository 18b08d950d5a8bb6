#include "rpq/crpq.h"

#include <cstdlib>
#include <set>

#include "rpq/parser.h"
#include "rpq/path_expr.h"
#include "util/text_scanner.h"

namespace kgq {
namespace {

/// Parses `(var)` or `(var: test)`.
Result<std::pair<std::string, TestPtr>> ParseCrpqNode(TextScanner* scan) {
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

std::string Crpq::ToString() const {
  std::string out;
  for (const CnfGrammarPtr& g : grammars) {
    out += g->surface().ToString() + " ";
  }
  out += name + "(";
  for (size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ", ";
    out += head[i];
  }
  out += ") :- ";
  std::set<std::string> printed;
  auto render_node = [&](const std::string& var) {
    std::string s = "(" + var;
    auto it = node_tests.find(var);
    if (it != node_tests.end() && printed.insert(var).second) {
      s += ": " + it->second->ToString();
    }
    return s + ")";
  };
  std::set<std::string> in_atoms;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += render_node(atoms[i].src) + " -[ " + atoms[i].path->ToString() +
           " ]-> " + render_node(atoms[i].dst);
    in_atoms.insert(atoms[i].src);
    in_atoms.insert(atoms[i].dst);
  }
  bool first = atoms.empty();
  for (const auto& [var, test] : node_tests) {
    if (in_atoms.count(var) > 0) continue;
    if (!first) out += ", ";
    first = false;
    out += render_node(var);
  }
  if (limit > 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

Result<Crpq> ParseCrpq(std::string_view text) {
  TextScanner scan(text);
  Crpq q;
  while (scan.AcceptKeyword("GRAMMAR")) {
    KGQ_ASSIGN_OR_RETURN(CfGrammar surface, ParseGrammarBlock(&scan));
    for (const CnfGrammarPtr& g : q.grammars) {
      if (g->name() == surface.name) {
        return Status::ParseError("duplicate grammar '" + surface.name +
                                  "'");
      }
    }
    KGQ_ASSIGN_OR_RETURN(CnfGrammarPtr g, CnfGrammar::Normalize(surface));
    q.grammars.push_back(std::move(g));
  }
  KGQ_ASSIGN_OR_RETURN(q.name, scan.TakeIdentifier());
  if (!scan.AcceptChar('(')) {
    return Status::ParseError("expected '(' after head predicate");
  }
  do {
    KGQ_ASSIGN_OR_RETURN(std::string var, scan.TakeIdentifier());
    q.head.push_back(std::move(var));
  } while (scan.AcceptChar(','));
  if (!scan.AcceptChar(')')) {
    return Status::ParseError("expected ')' closing the head");
  }
  if (!scan.AcceptSeq(":-")) {
    return Status::ParseError("expected ':-' after head");
  }

  auto add_test = [&](const std::string& var, TestPtr test) {
    if (!test) return;
    TestPtr& slot = q.node_tests[var];
    slot = slot ? TestExpr::And(slot, std::move(test)) : std::move(test);
  };

  do {
    KGQ_ASSIGN_OR_RETURN(auto node, ParseCrpqNode(&scan));
    std::string prev = node.first;
    add_test(prev, std::move(node.second));
    while (scan.AcceptSeq("-[")) {
      KGQ_ASSIGN_OR_RETURN(std::string raw, scan.TakeUntilPathClose());
      KGQ_ASSIGN_OR_RETURN(PathExprPtr path,
                           ResolvePathExpr(raw, q.grammars));
      KGQ_ASSIGN_OR_RETURN(auto next, ParseCrpqNode(&scan));
      q.atoms.push_back({prev, next.first, std::move(path)});
      prev = next.first;
      add_test(prev, std::move(next.second));
    }
  } while (scan.AcceptChar(','));

  if (scan.AcceptKeyword("LIMIT")) {
    KGQ_ASSIGN_OR_RETURN(std::string num, scan.TakeIdentifier());
    char* end = nullptr;
    q.limit = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || q.limit == 0) {
      return Status::ParseError("LIMIT expects a positive integer");
    }
  }
  if (!scan.AtEnd()) {
    return Status::ParseError("trailing input after query (position " +
                              std::to_string(scan.pos()) + ")");
  }

  std::set<std::string> declared;
  for (const PatternAtom& a : q.atoms) {
    declared.insert(a.src);
    declared.insert(a.dst);
  }
  for (const auto& [var, test] : q.node_tests) declared.insert(var);
  for (const std::string& h : q.head) {
    if (declared.count(h) == 0) {
      return Status::ParseError("head variable '" + h +
                                "' does not occur in the body");
    }
  }
  return q;
}

Result<ConjunctiveQuery> CompileCrpq(const Crpq& q) {
  if (q.head.empty()) {
    return Status::InvalidArgument("CRPQ head must project something");
  }
  ConjunctiveQuery cq;
  cq.atoms = q.atoms;
  cq.node_tests = q.node_tests;
  cq.projection = q.head;
  cq.limit = q.limit;
  return cq;
}

Result<RowSet> EvalCrpq(const GraphView& view, const Crpq& q,
                        const QueryOptions& options) {
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq, CompileCrpq(q));
  return EvalQuery(view, cq, options);
}

}  // namespace kgq
