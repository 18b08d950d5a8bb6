#ifndef KGQ_QUERY_MATCH_QUERY_H_
#define KGQ_QUERY_MATCH_QUERY_H_

#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "plan/exec.h"
#include "rpq/regex.h"
#include "util/result.h"

namespace kgq {

/// One node pattern of a MATCH chain: `(var)` or `(var: test)`.
struct NodePattern {
  std::string var;
  TestPtr test;  ///< May be null (no restriction).
};

/// A small declarative query language in the spirit of the languages the
/// tutorial surveys (Cypher, PGQL, G-CORE, SPARQL property paths): node
/// extraction by pattern matching along a chain of path expressions:
///
///   grammar SG { SG -> cites^- SG cites | cites^- cites }
///   MATCH (x: person) -[ rides ]-> (b: bus) -[ rides^- ]-> (y: infected)
///   WHERE x.age = "34" AND y.name = "Pedro"
///   RETURN x, b, y
///   LIMIT 10
///
/// * zero or more `grammar NAME { ... }` preambles before MATCH declare
///   context-free grammars (rpq/path_expr.h); hops reference them as
///   `-[ NAME ]->` or `-[ NAME.NT ]->`, mixing freely with regex hops;
/// * node patterns: `(var)` or `(var: test)` with the rpq test grammar
///   (so `(x: [person | infected])` works); variables must be distinct;
/// * each hop is any expression of the Section 4 regex grammar, or a
///   declared grammar reference;
/// * WHERE adds property-equality conjuncts on declared variables;
/// * each hop has existential pair semantics (pathalg/pairs.h; the
///   CFPQ relation, pathalg/cfpq_matrix.h, for context-free hops); the
///   chain is a conjunction of its hops;
/// * RETURN projects (deduplicated, sorted rows); LIMIT truncates.
struct MatchQuery {
  /// Declared grammars, in preamble order (names unique).
  std::vector<CnfGrammarPtr> grammars;
  std::vector<NodePattern> nodes;   ///< k+1 patterns.
  std::vector<PathExprPtr> paths;   ///< k hops (≥ 1).
  std::vector<std::string> returns;
  size_t limit = 0;  ///< 0 = no limit.

  /// Renders back in the concrete syntax (grammar preambles first) —
  /// the canonical text serve-layer caches key on.
  std::string ToString() const;
};

/// Tabular query answer: node ids per projected column.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<NodeId>> rows;
};

/// Parses the MATCH grammar above. Keywords are case-insensitive.
Result<MatchQuery> ParseMatchQuery(std::string_view text);

/// Lowers the MATCH chain to the shared logical IR (plan/ir.h): one
/// PatternAtom per hop, one node-test entry per restricted variable, the
/// RETURN list as projection. Fails on malformed chains
/// (nodes.size() != paths.size() + 1 or no hops).
Result<ConjunctiveQuery> CompileMatch(const MatchQuery& query);

/// Compile → EvalQuery (plan/exec.h). Produces exactly ExecuteMatch's
/// rows (oracles/match_reference.h: sorted, deduplicated, limited) for
/// every PlannerOptions configuration and thread count.
Result<QueryResult> ExecuteMatchPlanned(const GraphView& view,
                                        const MatchQuery& query,
                                        const QueryOptions& options = {});

/// Parse + planned execution convenience.
Result<QueryResult> RunMatch(const GraphView& view, std::string_view text);

}  // namespace kgq

#endif  // KGQ_QUERY_MATCH_QUERY_H_
