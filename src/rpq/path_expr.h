#ifndef KGQ_RPQ_PATH_EXPR_H_
#define KGQ_RPQ_PATH_EXPR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpq/regex.h"
#include "util/result.h"

namespace kgq {

class TextScanner;

/// The pluggable path-expression layer: every binary atom
/// `(x) -[ e ]-> (y)` of the plan IR carries a PathExpr, which is either
///
///   * kRegular      — a regular expression (rpq/regex.h), evaluated by
///                     the NFA engine or the boolean-matrix RPQ engine;
///   * kContextFree  — a nonterminal of a context-free grammar,
///                     evaluated as a grammar-driven fixpoint over
///                     per-label boolean matrices (pathalg/cfpq_matrix.h).
///
/// Context-free atoms are the expressiveness step the tutorial's CRPQ
/// section gestures toward but never reaches: same-generation, matched
/// call/return and hierarchy-aware reachability are all non-regular pair
/// relations. Queries declare grammars in a preamble and reference them
/// by name:
///
///   grammar SG { SG -> cites^- SG cites | cites^- cites }
///   q(x, y) :- (x) -[ SG ]-> (y), (x: paper)
///
/// Regular and context-free atoms mix freely in one conjunctive query.

// ---------------------------------------------------------------------
// Surface grammar

/// A context-free grammar as written in a query preamble. Productions
/// are kept verbatim (any RHS length); normalization to the binarized
/// evaluation form happens in CnfGrammar::Normalize.
///
/// Concrete syntax (keywords case-insensitive, labels case-sensitive):
///
///   grammar NAME { A -> sym sym ... | eps | ... ; B -> ... }
///
///   * alternatives are separated by `|`, productions by `;` (a trailing
///     `;` is allowed);
///   * a RHS symbol is an identifier, optionally suffixed `^-` to follow
///     an edge backward (terminals only — nonterminals cannot invert);
///   * symbols that appear as some production's LHS are nonterminals;
///     every other symbol is a terminal (an edge label);
///   * `eps` is the empty word and must be an entire alternative;
///   * NAME must have at least one production — it is the grammar's
///     start nonterminal, referenced from atoms as `-[ NAME ]->`; other
///     nonterminals are referenced as `-[ NAME.NT ]->`.
struct CfGrammar {
  struct Symbol {
    std::string text;
    bool backward = false;  ///< `^-` suffix (terminals only).
  };
  struct Production {
    std::string lhs;
    std::vector<Symbol> rhs;  ///< Empty = epsilon.
  };
  std::string name;
  std::vector<Production> productions;

  /// Canonical render (`grammar N { A -> x y | eps ; B -> z }`) — the
  /// form embedded into canonical query text, reparseable.
  std::string ToString() const;
};

/// Parses one grammar block. The scanner must be positioned *after* the
/// `grammar` keyword (the front-end parsers consume it to detect the
/// preamble).
Result<CfGrammar> ParseGrammarBlock(TextScanner* scan);

// ---------------------------------------------------------------------
// Normalized (evaluation) form

class CnfGrammar;
using CnfGrammarPtr = std::shared_ptr<const CnfGrammar>;

/// The binarized evaluation form of a CfGrammar — the CNF-style
/// production tables both CFPQ engines iterate. Normalization rewrites
/// every surface production into:
///
///   * nullable(A)        — A → ε
///   * TermProd A → ℓ     — one edge step (forward or backward)
///   * UnitProd A → B     — relation copy
///   * BinProd  A → X Y   — relation join (both operands nonterminals;
///                          terminals in long productions are promoted
///                          to fresh preterminals)
///
/// RHS chains longer than two symbols are split with fresh nonterminals
/// (`A -> s1 s2 s3` becomes `A -> s1 _A_1; _A_1 -> s2 s3`). No ε/unit
/// elimination is performed: the engines compute least fixpoints over
/// pair relations, where nullable seeds the identity diagonal and unit
/// productions are per-round unions — the fixpoint is the same language.
class CnfGrammar {
 public:
  struct TermProd {
    uint32_t lhs;
    std::string label;
    bool backward;
  };
  struct UnitProd {
    uint32_t lhs;
    uint32_t rhs;
  };
  struct BinProd {
    uint32_t lhs;
    uint32_t left;
    uint32_t right;
  };

  /// Validates + normalizes. Fails with ParseError on malformed
  /// grammars: no productions, a start symbol (the grammar's name) that
  /// is not produced, an inverted nonterminal, or `eps` mixed into a
  /// longer alternative.
  static Result<CnfGrammarPtr> Normalize(const CfGrammar& g);

  const std::string& name() const { return surface_.name; }
  /// The surface grammar, retained for canonical rendering.
  const CfGrammar& surface() const { return surface_; }

  /// Nonterminal ids: surface nonterminals first (in first-LHS-
  /// appearance order), then synthesized binarization helpers.
  size_t num_nonterminals() const { return names_.size(); }
  size_t num_surface_nonterminals() const { return num_surface_; }
  const std::string& NonterminalName(uint32_t id) const {
    return names_[id];
  }
  /// Finds a *surface* nonterminal by name (synthesized helpers are not
  /// addressable from queries).
  std::optional<uint32_t> FindNonterminal(std::string_view name) const;
  /// The start nonterminal — the one spelled like the grammar itself.
  uint32_t start() const { return start_; }

  bool nullable(uint32_t nt) const { return nullable_[nt] != 0; }
  const std::vector<TermProd>& term_prods() const { return term_prods_; }
  const std::vector<UnitProd>& unit_prods() const { return unit_prods_; }
  const std::vector<BinProd>& bin_prods() const { return bin_prods_; }

 private:
  CfGrammar surface_;
  std::vector<std::string> names_;
  size_t num_surface_ = 0;
  uint32_t start_ = 0;
  std::vector<uint8_t> nullable_;
  std::vector<TermProd> term_prods_;
  std::vector<UnitProd> unit_prods_;
  std::vector<BinProd> bin_prods_;
};

// ---------------------------------------------------------------------
// PathExpr

class PathExpr;
using PathExprPtr = std::shared_ptr<const PathExpr>;

/// A pluggable path expression: a regular expression or a context-free
/// grammar nonterminal. Immutable and shared, like RegexPtr.
class PathExpr {
 public:
  enum class Kind {
    kRegular,      ///< regex() is set.
    kContextFree,  ///< grammar() + nonterminal() are set.
  };

  static PathExprPtr Regular(RegexPtr regex);
  static PathExprPtr ContextFree(CnfGrammarPtr grammar,
                                 uint32_t nonterminal);

  Kind kind() const { return kind_; }
  /// The regular expression (null unless kRegular).
  const RegexPtr& regex() const { return regex_; }
  /// The grammar (null unless kContextFree).
  const CnfGrammarPtr& grammar() const { return grammar_; }
  uint32_t nonterminal() const { return nonterminal_; }

  /// Renders in the concrete atom syntax: the regex text, the grammar
  /// name (start nonterminal), or `Grammar.Nt` (other nonterminals) —
  /// the text EXPLAIN and the canonical cache keys embed.
  std::string ToString() const;

 private:
  explicit PathExpr(Kind kind) : kind_(kind) {}

  Kind kind_;
  RegexPtr regex_;
  CnfGrammarPtr grammar_;
  uint32_t nonterminal_ = 0;
};

/// Resolves the raw text of one `-[ ... ]->` hop against the query's
/// grammar preambles:
///
///   * a bare identifier spelling a declared grammar's name → that
///     grammar's start nonterminal (grammar names shadow edge labels in
///     atom position);
///   * `Name.Nt` → nonterminal `Nt` of grammar `Name` (fails with
///     ParseError when either is unknown — dots are not regex syntax,
///     so the form is unambiguous);
///   * anything else → ParseRegex, wrapped as a regular PathExpr.
Result<PathExprPtr> ResolvePathExpr(
    std::string_view raw, const std::vector<CnfGrammarPtr>& grammars);

}  // namespace kgq

#endif  // KGQ_RPQ_PATH_EXPR_H_
