#include "plan/exec.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"
#include "pathalg/cfpq_matrix.h"
#include "pathalg/matrix_rpq.h"
#include "pathalg/pairs.h"
#include "plan/stats.h"
#include "rpq/path_nfa.h"
#include "rpq/test_eval.h"

namespace kgq {
namespace {

constexpr size_t kNoColumn = static_cast<size_t>(-1);

/// Index of `var` in `schema`, or kNoColumn.
size_t ColumnOf(const std::vector<std::string>& schema,
                const std::string& var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return i;
  }
  return kNoColumn;
}

struct RowHash {
  size_t operator()(const std::vector<NodeId>& key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (NodeId v : key) {
      h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

/// Nodes a leaf may be evaluated from instead of the whole graph: the
/// distinct values of a join key (HashJoin) or the nodes passing an
/// endpoint test (Filter). Ascending and distinct.
struct KeySet {
  std::string var;
  std::vector<NodeId> nodes;
};
using KeySets = std::vector<KeySet>;

const KeySet* FindKeys(const KeySets* keys, const std::string& var) {
  if (keys == nullptr) return nullptr;
  for (const KeySet& k : *keys) {
    if (k.var == var) return &k;
  }
  return nullptr;
}

/// The leaf below `op`'s leaf-adjacent test Filters when it can be
/// evaluated from a key set — an EdgeScan or a regular PathAtom
/// (context-free atoms always compute their whole relation) — else null.
const LogicalOp* BindableLeaf(const LogicalOp& op) {
  const LogicalOp* cur = &op;
  while (cur->kind == LogicalKind::kFilter && cur->test != nullptr) {
    cur = cur->children[0].get();
  }
  if (cur->kind == LogicalKind::kEdgeScan) return cur;
  if (cur->kind == LogicalKind::kPathAtom &&
      cur->path->kind() == PathExpr::Kind::kRegular) {
    return cur;
  }
  return nullptr;
}

/// The `?test` every conforming path passes at its first node (`last`
/// = false) or at its last node: the outermost factor of a concatenation
/// chain, where the planner folds endpoint tests. Null when there is
/// none.
const TestExpr* EndpointNodeTest(const Regex& r, bool last) {
  const Regex* cur = &r;
  while (cur->kind() == Regex::Kind::kConcat) {
    cur = last ? cur->rhs().get() : cur->lhs().get();
  }
  return cur->kind() == Regex::Kind::kNodeTest ? cur->test().get() : nullptr;
}

class Executor {
 public:
  // A given snapshot is checked once, here (one of another graph is
  // ignored); without one the view's memoized snapshot serves, unchecked.
  Executor(const GraphView& view, const ExecOptions& options)
      : view_(view),
        options_(options),
        given_(options.snapshot != nullptr &&
               options.snapshot->MatchesTopology(view.topology())),
        csr_(given_ ? *options.snapshot : view.Csr()) {}

  /// Operator dispatch plus per-request profiling: when the calling
  /// thread has a TraceContext installed (serve's "profile":true path),
  /// every operator contributes one ProfileNode mirroring its EXPLAIN
  /// line — kind, rows in/out, engine choice and wall time. Without a
  /// trace this is a null check and the plain dispatch below. `keys`
  /// (may be null) are the key sets a parent offers the subtree's leaf.
  Result<RowSet> Exec(const LogicalOp& op, const KeySets* keys = nullptr) {
    obs::TraceContext* trace = obs::CurrentTrace();
    if (trace == nullptr) return ExecOp(op, keys);
    obs::ProfileNode* node = trace->PushOp(LogicalKindName(op.kind));
    const uint64_t start = obs::NowNanos();
    Result<RowSet> result = ExecOp(op, keys);
    node->time_ns = obs::NowNanos() - start;
    if (result.ok()) node->rows_out = result->rows.size();
    // rows_in = what the children fed this operator; leaves scan the
    // graph directly and report 0.
    for (const auto& child : node->children) node->rows_in += child->rows_out;
    trace->PopOp();
    return result;
  }

 private:
  Result<RowSet> ExecOp(const LogicalOp& op, const KeySets* keys) {
    switch (op.kind) {
      case LogicalKind::kNodeScan: {
        KGQ_SPAN("plan.op.node_scan");
        return NodeScan(op);
      }
      case LogicalKind::kEdgeScan: {
        KGQ_SPAN("plan.op.edge_scan");
        return EdgeScan(op, keys);
      }
      case LogicalKind::kPathAtom: {
        KGQ_SPAN("plan.op.path_atom");
        return PathAtom(op, keys);
      }
      case LogicalKind::kHashJoin: {
        KGQ_SPAN("plan.op.hash_join");
        return HashJoin(op);
      }
      case LogicalKind::kFilter: {
        KGQ_SPAN("plan.op.filter");
        return Filter(op, keys);
      }
      case LogicalKind::kProject: {
        KGQ_SPAN("plan.op.project");
        return Project(op);
      }
    }
    return Status::Internal("unknown logical operator");
  }

  /// Records the physical engine the current operator chose into the
  /// active profile node (no-op without a trace). The choice depends
  /// only on the plan, the snapshot and exact row counts, never on
  /// thread count — the "engine" field is one of the deterministic
  /// profile fields. `bound` appends "-bound": the leaf ran from a set
  /// of offered nodes, or from a path atom's target constant, instead of
  /// from the whole graph.
  static void ProfileEngine(const char* engine, bool bound = false) {
    if (obs::TraceContext* trace = obs::CurrentTrace()) {
      if (obs::ProfileNode* node = trace->CurrentOp()) {
        node->engine = engine;
        if (bound) node->engine += "-bound";
      }
    }
  }

  /// Counts a leaf evaluated from `num_keys` key nodes.
  static void CountBound([[maybe_unused]] size_t num_keys) {
    KGQ_COUNTER_INC("plan.bind.leaves");
    KGQ_COUNTER_ADD("plan.bind.keys", num_keys);
  }

  /// Resolves a leaf's constant binding: false → the leaf is empty
  /// (constant absent from the graph).
  static bool UsableBound(bool has, NodeId node, size_t num_nodes,
                          bool* active, NodeId* out) {
    *active = false;
    if (!has) return true;
    if (node == kNoNode || node >= num_nodes) return false;
    *active = true;
    *out = node;
    return true;
  }

  /// The start nodes offered for a leaf endpoint `var`: the parent's key
  /// set and the nodes passing `test` (a `?test` the endpoint's paths
  /// must pass; may be null), intersected when both exist. False when
  /// neither exists.
  bool EndpointKeys(const std::string& var, const TestExpr* test,
                    const KeySets* keys, std::vector<NodeId>* out) const {
    const KeySet* offered = FindKeys(keys, var);
    if (offered == nullptr && test == nullptr) return false;
    if (offered == nullptr) {
      *out = MatchNodes(view_, *test).ToVector();
      return true;
    }
    *out = offered->nodes;
    if (test != nullptr) {
      ResolvedTest resolved(view_, *test);
      std::erase_if(*out, [&](NodeId n) { return !resolved.MatchesNode(n); });
    }
    return true;
  }

  Result<RowSet> NodeScan(const LogicalOp& op) {
    RowSet rs;
    rs.schema = op.schema;
    bool bound = false;
    NodeId at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &bound, &at)) {
      return rs;
    }
    if (bound) {
      if (op.test == nullptr || EvalNodeTest(view_, *op.test, at)) {
        rs.rows.push_back({at});
      }
    } else if (op.test != nullptr) {
      MatchNodes(view_, *op.test).ForEach([&](size_t n) {
        rs.rows.push_back({static_cast<NodeId>(n)});
      });
    } else {
      for (NodeId n = 0; n < view_.num_nodes(); ++n) rs.rows.push_back({n});
    }
    KGQ_COUNTER_ADD("plan.rows.node_scan", rs.rows.size());
    return rs;
  }

  /// Single-label scan over label partitions: from its constant
  /// endpoint if it has one, else from the offered keys of the endpoint
  /// whose partitions hold fewer entries — when that sum, exact from the
  /// CSR offsets, is below the label's frequency — else from every node.
  Result<RowSet> EdgeScan(const LogicalOp& op, const KeySets* keys) {
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    ProfileEngine("csr");
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    // No edge carries the label — also when only the snapshot spells it
    // (a vector graph's ⊥ row, which no label atom of the view matches).
    std::optional<LabelId> lab = csr_.FindLabel(op.label);
    if (!lab.has_value() || !view_.ResolveLabel(op.label).has_value()) {
      return rs;
    }
    // Reads the label partition of `a` holding pairs (a, ·), or with
    // `from_dst` pairs (·, a): backward atoms swap the in and out views.
    auto partition = [&](NodeId a, bool from_dst) {
      return op.backward != from_dst ? csr_.InForLabel(a, *lab)
                                     : csr_.OutForLabel(a, *lab);
    };
    auto scan = [&](NodeId a, bool from_dst) {
      CsrSnapshot::Span part = partition(a, from_dst);
      KGQ_COUNTER_ADD("plan.scan.label_partition_entries", part.size());
      for (const CsrSnapshot::Entry& entry : part) {
        if (from_dst) {
          emit(entry.neighbor, a);
        } else {
          emit(a, entry.neighbor);
        }
      }
    };
    const bool constant = src_bound || (dst_bound && !diagonal);
    const KeySet* best = nullptr;
    bool from_dst = false;
    size_t best_cost = csr_.LabelFrequency(*lab);
    for (bool dst : {false, true}) {
      const KeySet* offered =
          constant || (dst && diagonal)
              ? nullptr
              : FindKeys(keys, dst ? op.dst_var : op.src_var);
      if (offered == nullptr) continue;
      size_t cost = 0;
      for (NodeId a : offered->nodes) cost += partition(a, dst).size();
      if (cost < best_cost) {
        best = offered;
        best_cost = cost;
        from_dst = dst;
      }
    }
    if (best != nullptr) ProfileEngine("csr", /*bound=*/true);
    if (constant) {
      scan(src_bound ? src_at : dst_at, !src_bound);
    } else if (best != nullptr) {
      CountBound(best->nodes.size());
      for (NodeId a : best->nodes) scan(a, from_dst);
    } else {
      for (NodeId a = 0; a < csr_.num_nodes(); ++a) scan(a, false);
    }
    KGQ_COUNTER_ADD("plan.rows.edge_scan", rs.rows.size());
    return rs;
  }

  /// Per-source reachability from each of `starts` (row i = the nodes
  /// reachable from starts[i]): one matrix fixpoint over all of them,
  /// or one NFA search per start in ParallelFor chunks.
  std::vector<Bitset> ReachFrom(const PathNfa& nfa,
                                const std::vector<NodeId>& starts,
                                bool matrix) const {
    PathQueryOptions popts;
    popts.parallel = options_.parallel;
    if (matrix) {
      KGQ_SPAN("plan.op.matrix_rpq");
      return MatrixReachFromAll(nfa, starts, popts);
    }
    std::vector<Bitset> rows(starts.size());
    const size_t grain = std::max<size_t>(1, (starts.size() + 127) / 128);
    ParallelFor(
        0, starts.size(), grain,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            rows[i] = ReachableFrom(nfa, starts[i], popts);
          }
        },
        options_.parallel);
    return rows;
  }

  /// Regular path atom. Searches start from its source constant; else
  /// from whichever endpoint offers fewer start nodes — a target
  /// constant, the parent's join keys, or the nodes passing a `?test`
  /// folded at that end — when they are fewer than the graph's nodes
  /// (target-side searches run the reversed regex); else from every
  /// node.
  Result<RowSet> PathAtom(const LogicalOp& op, const KeySets* keys) {
    if (op.path->kind() == PathExpr::Kind::kContextFree) {
      return CfPathAtom(op);
    }
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    const RegexPtr& regex = op.path->regex();
    std::vector<NodeId> starts;
    bool from_dst = false;
    bool use_keys = false;
    if (src_bound) {
      starts = {src_at};
    } else if (dst_bound && !diagonal) {
      starts = {dst_at};
      from_dst = use_keys = true;
    } else {
      std::vector<NodeId> src_keys, dst_keys;
      const bool has_src = EndpointKeys(
          op.src_var, EndpointNodeTest(*regex, false), keys, &src_keys);
      const bool has_dst =
          !diagonal && EndpointKeys(op.dst_var, EndpointNodeTest(*regex, true),
                                    keys, &dst_keys);
      const size_t src_n = has_src ? src_keys.size() : SIZE_MAX;
      const size_t dst_n = has_dst ? dst_keys.size() : SIZE_MAX;
      from_dst = dst_n < src_n;
      use_keys = std::min(src_n, dst_n) < view_.num_nodes();
      if (use_keys) {
        starts = std::move(from_dst ? dst_keys : src_keys);
      } else {
        from_dst = false;
        starts.resize(view_.num_nodes());
        std::iota(starts.begin(), starts.end(), NodeId{0});
      }
    }
    // Planner-selected physical engine (results are bit-identical
    // either way).
    const bool matrix = op.use_matrix_rpq;
    ProfileEngine(matrix ? "matrix" : "nfa", use_keys);
    if (use_keys) CountBound(starts.size());
    if (starts.empty()) return rs;

    const RegexPtr searched = from_dst ? Regex::Reverse(regex) : regex;
    // A given snapshot's topology was checked once per plan; a label
    // mismatch falls back to bitset filtering inside the product, so it
    // cannot change results.
    KGQ_ASSIGN_OR_RETURN(
        PathNfa nfa, given_ ? PathNfa::CompileOnChecked(view_, *searched, csr_)
                            : PathNfa::Compile(view_, *searched));
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    // One search per start node, rows in start order; a reversed search
    // from target b reaches exactly the sources a of (a, b).
    std::vector<Bitset> reach = ReachFrom(nfa, starts, matrix);
    for (size_t i = 0; i < starts.size(); ++i) {
      reach[i].ForEach([&](size_t other) {
        const NodeId o = static_cast<NodeId>(other);
        if (from_dst) {
          emit(o, starts[i]);
        } else {
          emit(starts[i], o);
        }
      });
    }
    KGQ_COUNTER_ADD("plan.rows.path_atom", rs.rows.size());
    return rs;
  }

  /// Context-free PathAtom: the full pair relation of the grammar
  /// nonterminal from the CFPQ matrix fixpoint, then endpoint bounds
  /// filter the relation. Unlike the regular engines there is no
  /// single-source shortcut: the grammar's derivations are not
  /// direction-local, so the fixpoint always runs whole-graph.
  Result<RowSet> CfPathAtom(const LogicalOp& op) {
    KGQ_SPAN("plan.op.cfpq");
    RowSet rs;
    rs.schema = op.schema;
    const bool diagonal = (op.src_var == op.dst_var);
    bool src_bound = false, dst_bound = false;
    NodeId src_at = kNoNode, dst_at = kNoNode;
    if (!UsableBound(op.has_bound_src, op.bound_src, view_.num_nodes(),
                     &src_bound, &src_at) ||
        !UsableBound(op.has_bound_dst, op.bound_dst, view_.num_nodes(),
                     &dst_bound, &dst_at)) {
      return rs;
    }
    const CnfGrammar& grammar = *op.path->grammar();
    const uint32_t nt = op.path->nonterminal();
    ProfileEngine("cfpq-matrix");
    auto emit = [&](NodeId a, NodeId b) {
      if (src_bound && a != src_at) return;
      if (dst_bound && b != dst_at) return;
      if (diagonal) {
        if (a == b) rs.rows.push_back({a});
      } else {
        rs.rows.push_back({a, b});
      }
    };
    KGQ_ASSIGN_OR_RETURN(BoolCsr rel,
                         CfpqSolveMatrix(csr_, grammar, nt, options_.parallel));
    for (size_t a = 0; a < rel.num_rows; ++a) {
      for (size_t k = rel.offsets[a]; k < rel.offsets[a + 1]; ++k) {
        emit(static_cast<NodeId>(a), rel.cols[k]);
      }
    }
    KGQ_COUNTER_ADD("plan.rows.path_atom", rs.rows.size());
    return rs;
  }

  Result<RowSet> HashJoin(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet left, Exec(*op.children[0]));
    // Bind join: offer the right leaf the distinct left values of each
    // join key on its endpoints, so it can start from those nodes.
    KeySets offered;
    if (const LogicalOp* leaf = BindableLeaf(*op.children[1])) {
      for (const std::string* var : {&leaf->src_var, &leaf->dst_var}) {
        const size_t col = ColumnOf(left.schema, *var);
        if (col == kNoColumn || FindKeys(&offered, *var) != nullptr) continue;
        Bitset seen(view_.num_nodes());
        for (const auto& row : left.rows) seen.Set(row[col]);
        offered.push_back({*var, seen.ToVector()});
      }
    }
    KGQ_ASSIGN_OR_RETURN(
        RowSet right,
        Exec(*op.children[1], offered.empty() ? nullptr : &offered));
    RowSet rs;
    rs.schema = op.schema;

    // Join keys: columns present on both sides, in left-schema order.
    std::vector<std::pair<size_t, size_t>> keys;  // (left col, right col)
    for (size_t i = 0; i < left.schema.size(); ++i) {
      size_t j = ColumnOf(right.schema, left.schema[i]);
      if (j != kNoColumn) keys.emplace_back(i, j);
    }
    // Output composition: op.schema = left schema ++ right-only columns.
    std::vector<size_t> right_extra;
    for (size_t j = 0; j < right.schema.size(); ++j) {
      if (ColumnOf(left.schema, right.schema[j]) == kNoColumn) {
        right_extra.push_back(j);
      }
    }
    auto emit = [&](const std::vector<NodeId>& l,
                    const std::vector<NodeId>& r) {
      std::vector<NodeId> row;
      row.reserve(left.schema.size() + right_extra.size());
      row.insert(row.end(), l.begin(), l.end());
      for (size_t j : right_extra) row.push_back(r[j]);
      rs.rows.push_back(std::move(row));
    };

    if (keys.empty()) {
      // Disconnected conjuncts: cross product.
      for (const auto& l : left.rows) {
        for (const auto& r : right.rows) emit(l, r);
      }
    } else {
      // Build on the smaller input, probe with the larger.
      const bool build_left = left.rows.size() <= right.rows.size();
      const RowSet& build = build_left ? left : right;
      const RowSet& probe = build_left ? right : left;
      auto build_key = [&](const std::vector<NodeId>& row) {
        std::vector<NodeId> k(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          k[i] = row[build_left ? keys[i].first : keys[i].second];
        }
        return k;
      };
      auto probe_key = [&](const std::vector<NodeId>& row) {
        std::vector<NodeId> k(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          k[i] = row[build_left ? keys[i].second : keys[i].first];
        }
        return k;
      };
      std::unordered_map<std::vector<NodeId>, std::vector<size_t>, RowHash>
          table;
      table.reserve(build.rows.size());
      for (size_t i = 0; i < build.rows.size(); ++i) {
        table[build_key(build.rows[i])].push_back(i);
      }
      KGQ_HISTOGRAM_RECORD("plan.join.build_rows", build.rows.size());
      for (const auto& row : probe.rows) {
        auto it = table.find(probe_key(row));
        [[maybe_unused]] size_t hits =
            it == table.end() ? 0 : it->second.size();
        KGQ_HISTOGRAM_RECORD("plan.join.probe_hits", hits);
        if (it == table.end()) continue;
        for (size_t i : it->second) {
          const auto& other = build.rows[i];
          if (build_left) {
            emit(other, row);
          } else {
            emit(row, other);
          }
        }
      }
    }
    KGQ_COUNTER_ADD("plan.rows.hash_join", rs.rows.size());
    return rs;
  }

  /// Test or constant-binding Filter. A test on an endpoint of a
  /// bindable leaf below also hands the leaf the nodes passing it (or
  /// narrows the parent's key set for that endpoint), so the leaf can
  /// start from them — the label-driven anchor.
  Result<RowSet> Filter(const LogicalOp& op, const KeySets* keys) {
    KeySets anchored;
    const KeySets* down = keys;
    const LogicalOp* leaf = BindableLeaf(*op.children[0]);
    if (op.test != nullptr && leaf != nullptr &&
        (leaf->src_var == op.src_var || leaf->dst_var == op.src_var)) {
      if (keys != nullptr) anchored = *keys;
      std::vector<NodeId> nodes;
      EndpointKeys(op.src_var, op.test.get(), keys, &nodes);
      std::erase_if(anchored,
                    [&](const KeySet& k) { return k.var == op.src_var; });
      anchored.push_back({op.src_var, std::move(nodes)});
      down = &anchored;
    }
    KGQ_ASSIGN_OR_RETURN(RowSet input, Exec(*op.children[0], down));
    size_t col = ColumnOf(input.schema, op.src_var);
    if (col == kNoColumn) {
      return Status::Internal("filter variable '" + op.src_var +
                              "' not in input schema");
    }
    std::optional<ResolvedTest> test;
    if (op.test != nullptr) test.emplace(view_, *op.test);
    RowSet rs;
    rs.schema = std::move(input.schema);
    for (auto& row : input.rows) {
      bool keep;
      if (test.has_value()) {
        keep = test->MatchesNode(row[col]);
      } else {
        keep = (op.bound_src != kNoNode && row[col] == op.bound_src);
      }
      if (keep) rs.rows.push_back(std::move(row));
    }
    KGQ_COUNTER_ADD("plan.rows.filter", rs.rows.size());
    return rs;
  }

  Result<RowSet> Project(const LogicalOp& op) {
    KGQ_ASSIGN_OR_RETURN(RowSet input, Exec(*op.children[0]));
    std::vector<size_t> cols;
    cols.reserve(op.columns.size());
    for (const std::string& var : op.columns) {
      size_t c = ColumnOf(input.schema, var);
      if (c == kNoColumn) {
        return Status::Internal("projected variable '" + var +
                                "' not in input schema");
      }
      cols.push_back(c);
    }
    RowSet rs;
    rs.schema = op.columns;
    rs.rows.reserve(input.rows.size());
    for (const auto& row : input.rows) {
      std::vector<NodeId> out;
      out.reserve(cols.size());
      for (size_t c : cols) out.push_back(row[c]);
      rs.rows.push_back(std::move(out));
    }
    // The canonical output discipline shared with the reference
    // evaluators: sorted, deduplicated, limit applied last.
    std::sort(rs.rows.begin(), rs.rows.end());
    rs.rows.erase(std::unique(rs.rows.begin(), rs.rows.end()),
                  rs.rows.end());
    if (op.limit > 0 && rs.rows.size() > op.limit) {
      rs.rows.resize(op.limit);
    }
    KGQ_COUNTER_ADD("plan.rows.project", rs.rows.size());
    return rs;
  }

  const GraphView& view_;
  const ExecOptions& options_;
  const bool given_;  // csr_ is the caller's checked snapshot.
  const CsrSnapshot& csr_;
};

}  // namespace

Result<RowSet> ExecutePlan(const GraphView& view, const LogicalOp& root,
                           const ExecOptions& options) {
  KGQ_SPAN("plan.execute");
  Executor executor(view, options);
  return executor.Exec(root);
}

Result<LogicalOpPtr> PlanOverView(
    const GraphView& view, const ConjunctiveQuery& query,
    const PlannerOptions& planner,
    const std::map<std::string, size_t>* node_label_counts) {
  return PlanQuery(query, GraphStats::From(&view, &view.Csr(),
                                           node_label_counts),
                   planner);
}

Result<RowSet> EvalQuery(
    const GraphView& view, const ConjunctiveQuery& query,
    const QueryOptions& options,
    const std::map<std::string, size_t>* node_label_counts) {
  KGQ_ASSIGN_OR_RETURN(
      LogicalOpPtr plan,
      PlanOverView(view, query, options.planner, node_label_counts));
  ExecOptions eopts;
  eopts.parallel = options.parallel;
  return ExecutePlan(view, *plan, eopts);
}

}  // namespace kgq
