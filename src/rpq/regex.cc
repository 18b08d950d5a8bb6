#include "rpq/regex.h"

#include <cassert>

namespace kgq {
namespace {

bool IsAtomTest(const TestExpr& t) {
  switch (t.kind()) {
    case TestExpr::Kind::kLabel:
    case TestExpr::Kind::kTrue:
      return true;
    default:
      return false;
  }
}

/// Renders a test in the position of a regex atom, bracketing compound
/// tests so the result re-parses unambiguously.
std::string TestAtomString(const TestExpr& t) {
  if (IsAtomTest(t)) return t.ToString();
  return "[" + t.ToString() + "]";
}

}  // namespace

RegexPtr Regex::NodeTest(TestPtr test) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kNodeTest));
  r->test_ = std::move(test);
  return r;
}

RegexPtr Regex::EdgeFwd(TestPtr test) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kEdgeFwd));
  r->test_ = std::move(test);
  return r;
}

RegexPtr Regex::EdgeBwd(TestPtr test) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kEdgeBwd));
  r->test_ = std::move(test);
  return r;
}

RegexPtr Regex::Union(RegexPtr a, RegexPtr b) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kUnion));
  r->lhs_ = std::move(a);
  r->rhs_ = std::move(b);
  return r;
}

RegexPtr Regex::Concat(RegexPtr a, RegexPtr b) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kConcat));
  r->lhs_ = std::move(a);
  r->rhs_ = std::move(b);
  return r;
}

RegexPtr Regex::Star(RegexPtr inner) {
  auto r = std::shared_ptr<Regex>(new Regex(Kind::kStar));
  r->lhs_ = std::move(inner);
  return r;
}

RegexPtr Regex::Reverse(const RegexPtr& r) {
  switch (r->kind_) {
    case Kind::kNodeTest:
      return r;
    case Kind::kEdgeFwd:
      return EdgeBwd(r->test_);
    case Kind::kEdgeBwd:
      return EdgeFwd(r->test_);
    case Kind::kUnion:
      return Union(Reverse(r->lhs_), Reverse(r->rhs_));
    case Kind::kConcat:
      return Concat(Reverse(r->rhs_), Reverse(r->lhs_));
    case Kind::kStar:
      return Star(Reverse(r->lhs_));
  }
  assert(false);
  return r;
}

size_t Regex::NumAtoms() const {
  switch (kind_) {
    case Kind::kNodeTest:
    case Kind::kEdgeFwd:
    case Kind::kEdgeBwd:
      return 1;
    case Kind::kStar:
      return lhs_->NumAtoms();
    case Kind::kUnion:
    case Kind::kConcat:
      return lhs_->NumAtoms() + rhs_->NumAtoms();
  }
  assert(false);
  return 0;
}

std::string Regex::ToString() const {
  switch (kind_) {
    case Kind::kNodeTest:
      return "?" + TestAtomString(*test_);
    case Kind::kEdgeFwd:
      return TestAtomString(*test_);
    case Kind::kEdgeBwd:
      return TestAtomString(*test_) + "^-";
    case Kind::kUnion:
      return "(" + lhs_->ToString() + " + " + rhs_->ToString() + ")";
    case Kind::kConcat:
      return lhs_->ToString() + "/" + rhs_->ToString();
    case Kind::kStar: {
      const std::string inner = lhs_->ToString();
      bool atom = lhs_->kind() == Kind::kNodeTest ||
                  lhs_->kind() == Kind::kEdgeFwd ||
                  lhs_->kind() == Kind::kEdgeBwd;
      // Union already renders its own parentheses.
      if (atom || lhs_->kind() == Kind::kUnion) return inner + "*";
      return "(" + inner + ")*";
    }
  }
  assert(false);
  return "";
}

}  // namespace kgq
