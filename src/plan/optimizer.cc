#include "plan/optimizer.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "obs/obs.h"

namespace kgq {
namespace {

/// True iff `r` is a single plain-label edge atom — the shape the
/// EdgeScan fast path accepts. Outputs the label and direction.
bool IsSingleLabelAtom(const Regex& r, std::string* label, bool* backward) {
  if (r.kind() != Regex::Kind::kEdgeFwd &&
      r.kind() != Regex::Kind::kEdgeBwd) {
    return false;
  }
  if (r.test()->kind() != TestExpr::Kind::kLabel) return false;
  *label = r.test()->label();
  *backward = (r.kind() == Regex::Kind::kEdgeBwd);
  return true;
}

std::vector<std::string> PairSchema(const std::string& src,
                                    const std::string& dst) {
  if (src == dst) return {src};
  return {src, dst};
}

/// Mutable alias used while building (ops are frozen into LogicalOpPtr
/// when inserted into the tree).
using OpPtr = std::shared_ptr<LogicalOp>;

OpPtr MakeOp(LogicalKind kind) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = kind;
  return op;
}

/// Wraps `child` in a test-Filter on `var`.
OpPtr MakeTestFilter(OpPtr child, const std::string& var, TestPtr test,
                     const GraphStats& stats) {
  OpPtr f = MakeOp(LogicalKind::kFilter);
  f->src_var = var;
  f->test = std::move(test);
  f->schema = child->schema;
  f->est_rows = child->est_rows * stats.NodeTestSelectivity(*f->test);
  f->children.push_back(std::move(child));
  return f;
}

/// Wraps `child` in a constant-binding Filter (`var` == node).
OpPtr MakeBindFilter(OpPtr child, const std::string& var, NodeId node,
                     const GraphStats& stats) {
  OpPtr f = MakeOp(LogicalKind::kFilter);
  f->src_var = var;
  f->bound_src = node;
  f->has_bound_src = true;
  f->schema = child->schema;
  f->est_rows = child->est_rows / std::max(stats.num_nodes(), 1.0);
  f->children.push_back(std::move(child));
  return f;
}

/// Estimated output size of joining `l` and `r`: the classic
/// |L|·|R| / n^(#shared vars) independence estimate.
double JoinEstimate(const LogicalOp& l, const LogicalOp& r, double n) {
  size_t shared = 0;
  for (const std::string& v : l.schema) {
    if (r.Produces(v)) ++shared;
  }
  double est = l.est_rows * r.est_rows;
  for (size_t i = 0; i < shared; ++i) est /= std::max(n, 1.0);
  return est;
}

OpPtr MakeJoin(OpPtr l, OpPtr r, double n) {
  OpPtr j = MakeOp(LogicalKind::kHashJoin);
  j->est_rows = JoinEstimate(*l, *r, n);
  j->schema = l->schema;
  for (const std::string& v : r->schema) {
    if (!l->Produces(v)) j->schema.push_back(v);
  }
  j->children.push_back(std::move(l));
  j->children.push_back(std::move(r));
  return j;
}

bool SharesVar(const LogicalOp& a, const LogicalOp& b) {
  for (const std::string& v : a.schema) {
    if (b.Produces(v)) return true;
  }
  return false;
}

/// The matrix_rpq rule: should this regular PathAtom leaf run on the
/// matrix RPQ engine? kAuto picks it only for bulk evaluations — no
/// bound endpoint (a bound source is one BFS, which the fixpoint's
/// dense N-column frontier would dwarf), a graph big enough for
/// word-level batching to pay (≥ 64 nodes, one frontier word), and an
/// estimated pair count of at least one per node (a dense-enough
/// relation that the per-source evaluation would re-traverse shared
/// structure n times over). `est_pairs` is the atom's pair-relation
/// estimate (EstimatePathPairs), before endpoint scaling.
bool ChooseMatrixRpq(const LogicalOp& leaf, const GraphStats& stats,
                     MatrixRpqMode mode, double est_pairs) {
  switch (mode) {
    case MatrixRpqMode::kOff:
      return false;
    case MatrixRpqMode::kAlways:
      return true;
    case MatrixRpqMode::kAuto:
      break;
  }
  if (leaf.has_bound_src || leaf.has_bound_dst) return false;
  double n = stats.num_nodes();
  if (n < 64.0) return false;
  return est_pairs >= n;
}

}  // namespace

Result<LogicalOpPtr> PlanQuery(const ConjunctiveQuery& query,
                               const GraphStats& stats,
                               const PlannerOptions& options) {
  KGQ_SPAN("plan.optimize");
  const double n = std::max(stats.num_nodes(), 1.0);

  // ---- validation + variable census ----
  std::set<std::string> atom_vars;
  std::set<std::string> all_vars;
  for (const PatternAtom& a : query.atoms) {
    if (a.path == nullptr || a.src.empty() || a.dst.empty()) {
      return Status::InvalidArgument("malformed pattern atom");
    }
    atom_vars.insert(a.src);
    atom_vars.insert(a.dst);
  }
  all_vars = atom_vars;
  for (const auto& [var, test] : query.node_tests) {
    if (test == nullptr) {
      return Status::InvalidArgument("null node test on '" + var + "'");
    }
    all_vars.insert(var);
  }
  for (const auto& [var, node] : query.bound) all_vars.insert(var);
  if (query.projection.empty()) {
    return Status::InvalidArgument("empty projection");
  }
  for (const std::string& var : query.projection) {
    if (all_vars.count(var) == 0) {
      return Status::InvalidArgument("projected variable '" + var +
                                     "' appears nowhere in the query");
    }
  }
  if (all_vars.empty()) {
    return Status::InvalidArgument("query has no atoms and no tests");
  }

  auto test_of = [&](const std::string& var) -> TestPtr {
    auto it = query.node_tests.find(var);
    return it == query.node_tests.end() ? nullptr : it->second;
  };
  auto bound_of = [&](const std::string& var, NodeId* node) {
    auto it = query.bound.find(var);
    if (it == query.bound.end()) return false;
    *node = it->second;
    return true;
  };

  // Restrictions deferred to explicit Filters above the join tree (the
  // naive mode; pushdown leaves these sets empty except for EdgeScan
  // endpoint tests, which become leaf-adjacent Filters).
  std::vector<std::pair<std::string, TestPtr>> late_tests;
  std::vector<std::pair<std::string, NodeId>> late_bindings;
  std::set<std::string> late_test_vars;
  std::set<std::string> late_bind_vars;
  auto defer_restrictions = [&](const std::string& var) {
    if (TestPtr t = test_of(var); t && late_test_vars.insert(var).second) {
      late_tests.emplace_back(var, std::move(t));
    }
    NodeId node = kNoNode;
    if (bound_of(var, &node) && late_bind_vars.insert(var).second) {
      late_bindings.emplace_back(var, node);
    }
  };

  // ---- leaves, in textual atom order ----
  std::vector<OpPtr> entries;
  for (const PatternAtom& a : query.atoms) {
    std::string label;
    bool backward = false;
    OpPtr leaf;
    if (options.edge_scan_fastpath &&
        a.path->kind() == PathExpr::Kind::kRegular &&
        IsSingleLabelAtom(*a.path->regex(), &label, &backward)) {
      KGQ_COUNTER_INC("plan.optimizer.edge_scan_fastpath");
      leaf = MakeOp(LogicalKind::kEdgeScan);
      leaf->src_var = a.src;
      leaf->dst_var = a.dst;
      leaf->label = label;
      leaf->backward = backward;
      leaf->schema = PairSchema(a.src, a.dst);
      leaf->est_rows = stats.LabelFrequency(label);
      if (a.src == a.dst) leaf->est_rows /= n;
      if (options.push_filters) {
        NodeId node = kNoNode;
        if (bound_of(a.src, &node)) {
          leaf->bound_src = node;
          leaf->has_bound_src = true;
          leaf->est_rows /= n;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst && bound_of(a.dst, &node)) {
          leaf->bound_dst = node;
          leaf->has_bound_dst = true;
          leaf->est_rows /= n;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        // Label partitions cannot absorb node tests — keep them as
        // Filters directly above the scan.
        if (TestPtr t = test_of(a.src)) {
          leaf = MakeTestFilter(std::move(leaf), a.src, std::move(t), stats);
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst) {
          if (TestPtr t = test_of(a.dst)) {
            leaf =
                MakeTestFilter(std::move(leaf), a.dst, std::move(t), stats);
            KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
          }
        }
      } else {
        defer_restrictions(a.src);
        defer_restrictions(a.dst);
      }
    } else if (a.path->kind() == PathExpr::Kind::kContextFree) {
      // Context-free atom: a grammar relation cannot absorb node tests
      // into the path the way regexes fold them — endpoint tests stay
      // as leaf-adjacent Filters (the EdgeScan pattern); constant
      // bindings sink into the leaf's bound fields.
      leaf = MakeOp(LogicalKind::kPathAtom);
      leaf->src_var = a.src;
      leaf->dst_var = a.dst;
      leaf->path = a.path;
      leaf->schema = PairSchema(a.src, a.dst);
      if (options.push_filters) {
        NodeId node = kNoNode;
        if (bound_of(a.src, &node)) {
          leaf->bound_src = node;
          leaf->has_bound_src = true;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst && bound_of(a.dst, &node)) {
          leaf->bound_dst = node;
          leaf->has_bound_dst = true;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
      } else {
        defer_restrictions(a.src);
        defer_restrictions(a.dst);
      }
      leaf->est_rows =
          stats.EstimateCfpqPairs(*a.path->grammar(), a.path->nonterminal());
      if (a.src == a.dst) leaf->est_rows /= n;
      if (leaf->has_bound_src) leaf->est_rows /= n;
      if (leaf->has_bound_dst) leaf->est_rows /= n;
      leaf->use_matrix_rpq = true;  // The CFPQ fixpoint is the only engine.
      if (options.push_filters) {
        if (TestPtr t = test_of(a.src)) {
          leaf = MakeTestFilter(std::move(leaf), a.src, std::move(t), stats);
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst) {
          if (TestPtr t = test_of(a.dst)) {
            leaf =
                MakeTestFilter(std::move(leaf), a.dst, std::move(t), stats);
            KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
          }
        }
      }
    } else {
      leaf = MakeOp(LogicalKind::kPathAtom);
      leaf->src_var = a.src;
      leaf->dst_var = a.dst;
      RegexPtr full = a.path->regex();
      if (options.push_filters) {
        // Fold endpoint tests into the regex — the same wrapping the
        // reference evaluators apply hop by hop.
        if (TestPtr t = test_of(a.src)) {
          full = Regex::Concat(Regex::NodeTest(std::move(t)), full);
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst) {  // Diagonal atoms: the src fold covers it.
          if (TestPtr t = test_of(a.dst)) {
            full = Regex::Concat(full, Regex::NodeTest(std::move(t)));
            KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
          }
        }
        NodeId node = kNoNode;
        if (bound_of(a.src, &node)) {
          leaf->bound_src = node;
          leaf->has_bound_src = true;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
        if (a.src != a.dst && bound_of(a.dst, &node)) {
          leaf->bound_dst = node;
          leaf->has_bound_dst = true;
          KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
        }
      } else {
        defer_restrictions(a.src);
        defer_restrictions(a.dst);
      }
      leaf->path =
          full == a.path->regex() ? a.path : PathExpr::Regular(full);
      leaf->schema = PairSchema(a.src, a.dst);
      double est_pairs = stats.EstimatePathPairs(*full);
      leaf->est_rows = est_pairs;
      if (a.src == a.dst) leaf->est_rows /= n;
      if (leaf->has_bound_src) leaf->est_rows /= n;
      if (leaf->has_bound_dst) leaf->est_rows /= n;
      leaf->use_matrix_rpq =
          ChooseMatrixRpq(*leaf, stats, options.matrix_rpq, est_pairs);
      if (leaf->use_matrix_rpq) {
        KGQ_COUNTER_INC("plan.optimizer.matrix_rpq");
      }
    }
    entries.push_back(std::move(leaf));
  }

  // Variables restricted or projected but not touched by any atom:
  // NodeScan leaves.
  for (const std::string& var : all_vars) {
    if (atom_vars.count(var) != 0) continue;
    OpPtr scan = MakeOp(LogicalKind::kNodeScan);
    scan->src_var = var;
    scan->schema = {var};
    scan->est_rows = n;
    if (options.push_filters) {
      if (TestPtr t = test_of(var)) {
        scan->test = t;
        scan->est_rows *= stats.NodeTestSelectivity(*t);
        KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
      }
      NodeId node = kNoNode;
      if (bound_of(var, &node)) {
        scan->bound_src = node;
        scan->has_bound_src = true;
        scan->est_rows = 1.0;
        KGQ_COUNTER_INC("plan.optimizer.filters_pushed");
      }
    } else {
      defer_restrictions(var);
    }
    entries.push_back(std::move(scan));
  }

  // ---- join order ----
  OpPtr root;
  if (!options.reorder_joins || entries.size() <= 2) {
    // Textual order, left to right.
    root = std::move(entries.front());
    for (size_t i = 1; i < entries.size(); ++i) {
      root = MakeJoin(std::move(root), std::move(entries[i]), n);
    }
  } else {
    // Greedy: seed with the smallest leaf, then repeatedly join the
    // entry minimizing the estimated join output, preferring connected
    // entries (cross products only when nothing shares a variable).
    std::vector<OpPtr> pending = std::move(entries);
    size_t seed = 0;
    for (size_t i = 1; i < pending.size(); ++i) {
      if (pending[i]->est_rows < pending[seed]->est_rows) seed = i;
    }
    if (seed != 0) KGQ_COUNTER_INC("plan.optimizer.join_reorders");
    root = std::move(pending[seed]);
    pending.erase(pending.begin() + seed);
    while (!pending.empty()) {
      size_t best = pending.size();
      double best_est = 0.0;
      bool best_connected = false;
      for (size_t i = 0; i < pending.size(); ++i) {
        bool connected = SharesVar(*root, *pending[i]);
        double est = JoinEstimate(*root, *pending[i], n);
        if (best == pending.size() || (connected && !best_connected) ||
            (connected == best_connected && est < best_est)) {
          best = i;
          best_est = est;
          best_connected = connected;
        }
      }
      if (best != 0) KGQ_COUNTER_INC("plan.optimizer.join_reorders");
      root = MakeJoin(std::move(root), std::move(pending[best]), n);
      pending.erase(pending.begin() + best);
    }
  }

  // ---- deferred filters (naive mode) ----
  for (auto& [var, test] : late_tests) {
    root = MakeTestFilter(std::move(root), var, std::move(test), stats);
  }
  for (auto& [var, node] : late_bindings) {
    root = MakeBindFilter(std::move(root), var, node, stats);
  }

  // ---- projection ----
  for (const std::string& var : query.projection) {
    if (!root->Produces(var)) {
      return Status::Internal("planned tree lost variable '" + var + "'");
    }
  }
  OpPtr project = MakeOp(LogicalKind::kProject);
  project->columns = query.projection;
  project->limit = query.limit;
  project->schema = query.projection;
  project->est_rows =
      query.limit > 0 ? std::min<double>(query.limit, root->est_rows)
                      : root->est_rows;
  project->children.push_back(std::move(root));
  return LogicalOpPtr(std::move(project));
}

}  // namespace kgq
