#include "oracles/reference_eval.h"

#include <cassert>
#include <map>
#include <set>

#include "rpq/test_eval.h"

namespace kgq {
namespace {

using PathSet = std::set<Path>;

/// Joins two path sets on end(p) == start(p'), capping result length.
PathSet Join(const PathSet& lhs, const PathSet& rhs, size_t max_length) {
  std::map<NodeId, std::vector<const Path*>> rhs_by_start;
  for (const Path& p : rhs) rhs_by_start[p.Start()].push_back(&p);
  PathSet out;
  for (const Path& p : lhs) {
    auto it = rhs_by_start.find(p.End());
    if (it == rhs_by_start.end()) continue;
    for (const Path* q : it->second) {
      if (p.Length() + q->Length() > max_length) continue;
      out.insert(p.Concat(*q));
    }
  }
  return out;
}

PathSet Eval(const GraphView& view, const Regex& r, size_t max_length) {
  switch (r.kind()) {
    case Regex::Kind::kNodeTest: {
      PathSet out;
      for (NodeId n = 0; n < view.num_nodes(); ++n) {
        if (EvalNodeTest(view, *r.test(), n)) out.insert(Path::Trivial(n));
      }
      return out;
    }
    case Regex::Kind::kEdgeFwd: {
      PathSet out;
      if (max_length < 1) return out;
      const Multigraph& g = view.topology();
      for (EdgeId e = 0; e < view.num_edges(); ++e) {
        if (EvalEdgeTest(view, *r.test(), e)) {
          out.insert(Path{{g.EdgeSource(e), g.EdgeTarget(e)}, {e}});
        }
      }
      return out;
    }
    case Regex::Kind::kEdgeBwd: {
      PathSet out;
      if (max_length < 1) return out;
      const Multigraph& g = view.topology();
      for (EdgeId e = 0; e < view.num_edges(); ++e) {
        if (EvalEdgeTest(view, *r.test(), e)) {
          out.insert(Path{{g.EdgeTarget(e), g.EdgeSource(e)}, {e}});
        }
      }
      return out;
    }
    case Regex::Kind::kUnion: {
      PathSet out = Eval(view, *r.lhs(), max_length);
      PathSet rhs = Eval(view, *r.rhs(), max_length);
      out.insert(rhs.begin(), rhs.end());
      return out;
    }
    case Regex::Kind::kConcat: {
      PathSet lhs = Eval(view, *r.lhs(), max_length);
      PathSet rhs = Eval(view, *r.rhs(), max_length);
      return Join(lhs, rhs, max_length);
    }
    case Regex::Kind::kStar: {
      // ⟦r*⟧ = ∪_{i≥0} ⟦r⟧^i with ⟦r⟧^0 the trivial path at every node.
      PathSet base = Eval(view, *r.lhs(), max_length);
      PathSet out;
      for (NodeId n = 0; n < view.num_nodes(); ++n) {
        out.insert(Path::Trivial(n));
      }
      PathSet frontier = out;
      while (!frontier.empty()) {
        PathSet next = Join(frontier, base, max_length);
        PathSet fresh;
        for (const Path& p : next) {
          if (out.insert(p).second) fresh.insert(p);
        }
        frontier = std::move(fresh);
      }
      return out;
    }
  }
  assert(false);
  return {};
}

}  // namespace

std::vector<Path> EvalReference(const GraphView& view, const Regex& regex,
                                size_t max_length) {
  PathSet set = Eval(view, regex, max_length);
  return std::vector<Path>(set.begin(), set.end());
}

std::vector<Path> EvalReferenceExact(const GraphView& view,
                                     const Regex& regex, size_t length) {
  std::vector<Path> out;
  for (Path& p : EvalReference(view, regex, length)) {
    if (p.Length() == length) out.push_back(std::move(p));
  }
  return out;
}

}  // namespace kgq
