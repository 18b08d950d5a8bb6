#ifndef KGQ_RPQ_REGEX_H_
#define KGQ_RPQ_REGEX_H_

#include <memory>
#include <string>

#include "rpq/test_expr.h"

namespace kgq {

class Regex;
using RegexPtr = std::shared_ptr<const Regex>;

/// The regular-expression grammar of Section 4, equation (1):
///
///   r ::= ?test | test | test⁻ | (r + r) | (r / r) | (r*)
///
/// `?test` filters the current node (a length-0 step), `test` follows an
/// edge forward, `test⁻` follows an edge backward, `+` is union, `/` is
/// concatenation and `*` is Kleene star. The same grammar serves all
/// three data models because tests carry the model-specific atoms.
class Regex {
 public:
  enum class Kind {
    kNodeTest,  ///< ?test
    kEdgeFwd,   ///< test
    kEdgeBwd,   ///< test⁻
    kUnion,     ///< (r + r)
    kConcat,    ///< (r / r)
    kStar,      ///< (r*)
  };

  Kind kind() const { return kind_; }
  /// The test of an atom (kNodeTest / kEdgeFwd / kEdgeBwd).
  const TestPtr& test() const { return test_; }
  const RegexPtr& lhs() const { return lhs_; }
  const RegexPtr& rhs() const { return rhs_; }

  /// ?test — keep the current node if it satisfies `test`.
  static RegexPtr NodeTest(TestPtr test);
  /// test — traverse an edge (source→target) whose label satisfies `test`.
  static RegexPtr EdgeFwd(TestPtr test);
  /// test⁻ — traverse an edge against its direction.
  static RegexPtr EdgeBwd(TestPtr test);
  static RegexPtr Union(RegexPtr a, RegexPtr b);
  static RegexPtr Concat(RegexPtr a, RegexPtr b);
  static RegexPtr Star(RegexPtr r);

  /// Convenience shorthands used all over tests and examples.
  static RegexPtr NodeLabel(std::string label) {
    return NodeTest(TestExpr::Label(std::move(label)));
  }
  static RegexPtr EdgeLabel(std::string label) {
    return EdgeFwd(TestExpr::Label(std::move(label)));
  }
  static RegexPtr EdgeLabelBwd(std::string label) {
    return EdgeBwd(TestExpr::Label(std::move(label)));
  }

  /// The reversed expression: its pairs are the transposed pairs of
  /// `r`, (a, b) ∈ ⟦r⟧ ⟺ (b, a) ∈ ⟦Reverse(r)⟧. Swaps ℓ and ℓ⁻ and
  /// reverses the order of every concatenation; node tests, unions and
  /// stars keep their shape. Lets a search start from a path's target.
  static RegexPtr Reverse(const RegexPtr& r);

  /// Number of atoms (leaves) in the expression.
  size_t NumAtoms() const;

  /// Renders in the parser's concrete syntax.
  std::string ToString() const;

 private:
  explicit Regex(Kind kind) : kind_(kind) {}

  Kind kind_;
  TestPtr test_;
  RegexPtr lhs_;
  RegexPtr rhs_;
};

}  // namespace kgq

#endif  // KGQ_RPQ_REGEX_H_
