#include "serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iostream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "plan/exec.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "rpq/crpq.h"

namespace kgq {
namespace serve {

/// A query request after parsing and canonicalization: the parsed
/// front-end form (one member is live per `lang`), the cache key and
/// the resolved thread budget. Graph-independent — preparing touches no
/// snapshot, so the dispatcher can do it before pinning an epoch.
struct Server::PreparedQuery {
  QueryLang lang = QueryLang::kMatch;
  std::string key;
  MatchQuery match;
  Crpq crpq;
  std::vector<TriplePattern> bgp;
  ParallelOptions parallel;
  /// The request asked for a per-operator profile ("profile":true).
  bool profile = false;
};

namespace {

/// Canonical rendering of a BGP pattern list — the cache key for the
/// bgp front-end. Injective (constants are JSON-quoted), not meant to
/// be re-parsed.
std::string RenderBgpCanonical(const std::vector<TriplePattern>& patterns) {
  std::string out;
  auto term = [&out](const Term& t) {
    if (t.is_var) {
      out.push_back('?');
      out += t.text;
    } else {
      AppendJsonString(&out, t.text);
    }
  };
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (i > 0) out += " . ";
    const TriplePattern& p = patterns[i];
    term(p.s);
    out.push_back(' ');
    if (p.path != nullptr) {
      out.push_back('(');
      out += p.path->ToString();
      out.push_back(')');
    } else {
      term(p.p);
    }
    out.push_back(' ');
    term(p.o);
  }
  return out;
}

/// Resolves a BGP constant against the served graph's node space. The
/// serving layer names nodes "n<i>" — the same convention as the RDF
/// encoding of a labeled graph (rdf/convert.h) — so clients address
/// nodes by the ids the write path handed out. Anything else (including
/// out-of-range ids) resolves to kNoNode, the uniform "no match"
/// binding CompileBgp also uses.
NodeId ResolveBgpConstant(const std::string& term, const LabeledGraph& g) {
  if (term.size() < 2 || term[0] != 'n') return kNoNode;
  uint64_t v = 0;
  for (size_t i = 1; i < term.size(); ++i) {
    char c = term[i];
    if (c < '0' || c > '9') return kNoNode;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > 0xFFFFFFFFull) return kNoNode;
  }
  if (v >= g.num_nodes()) return kNoNode;
  return static_cast<NodeId>(v);
}

/// Lowers a BGP to the shared IR over the served labeled graph — the
/// serving-layer sibling of CompileBgp (rdf/bgp.cc), with two
/// differences: constants are "n<i>" node names instead of RDF terms,
/// and a plain pattern whose predicate is kgq:label with a constant
/// object becomes a node-label test on the subject (mirroring the
/// LabeledToRdf encoding, where node labels live on kgq:label triples).
Result<ConjunctiveQuery> CompileBgpOverLabeled(
    const std::vector<TriplePattern>& patterns, const LabeledGraph& graph) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty basic graph pattern");
  }
  std::set<std::string> user_vars;
  for (const TriplePattern& p : patterns) {
    if (p.s.is_var) user_vars.insert(p.s.text);
    if (p.o.is_var) user_vars.insert(p.o.text);
  }

  ConjunctiveQuery cq;
  size_t next_const = 0;
  auto var_of = [&](const Term& t) -> std::string {
    if (t.is_var) return t.text;
    std::string name = "$c" + std::to_string(next_const++);
    while (user_vars.count(name) > 0) name += "_";
    cq.bound[name] = ResolveBgpConstant(t.text, graph);
    return name;
  };
  for (const TriplePattern& p : patterns) {
    if (p.path == nullptr && !p.p.is_var &&
        p.p.text == kNodeLabelPredicate) {
      if (p.o.is_var) {
        return Status::Unsupported(
            "kgq:label with a variable object (label enumeration) is not "
            "supported");
      }
      std::string v = var_of(p.s);
      TestPtr test = TestExpr::Label(p.o.text);
      auto it = cq.node_tests.find(v);
      cq.node_tests[v] =
          it == cq.node_tests.end() ? test : TestExpr::And(it->second, test);
      continue;
    }
    RegexPtr path = p.path;
    if (path == nullptr) {
      if (p.p.is_var) {
        return Status::Unsupported(
            "variable predicates are not supported by the serving "
            "front-end");
      }
      path = Regex::EdgeLabel(p.p.text);
    }
    cq.atoms.push_back({var_of(p.s), var_of(p.o), std::move(path)});
  }
  cq.projection.assign(user_vars.begin(), user_vars.end());
  return cq;
}

/// Compiles a prepared query to the shared IR over one epoch. Sets
/// `*ask` for BGPs with no user variable (the "does this pattern hold"
/// form), whose answer collapses to zero or one empty row.
Result<ConjunctiveQuery> CompilePrepared(const Server::PreparedQuery& prep,
                                         const EpochSnapshot& snap,
                                         bool* ask) {
  *ask = false;
  ConjunctiveQuery cq;
  switch (prep.lang) {
    case QueryLang::kMatch: {
      KGQ_ASSIGN_OR_RETURN(cq, CompileMatch(prep.match));
      break;
    }
    case QueryLang::kCrpq: {
      KGQ_ASSIGN_OR_RETURN(cq, CompileCrpq(prep.crpq));
      break;
    }
    case QueryLang::kBgp: {
      KGQ_ASSIGN_OR_RETURN(cq, CompileBgpOverLabeled(prep.bgp, snap.graph()));
      if (cq.projection.empty()) {
        *ask = true;
        cq.projection.push_back(cq.bound.begin()->first);
      }
      break;
    }
  }
  return cq;
}

/// Compile → EvalQuery one prepared query against one epoch (whose
/// graph's Csr() is the published CSR): the uncached compute path
/// shared by the server and the replay oracle. With `capture_profile`, the query runs under a request-scoped
/// TraceContext and the answer carries the per-operator profile tree.
Result<QueryAnswer> ComputePrepared(const Server::PreparedQuery& prep,
                                    const EpochSnapshot& snap,
                                    const PlannerOptions& planner,
                                    bool capture_profile = false) {
  KGQ_SPAN("serve.query");
  bool ask = false;
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                       CompilePrepared(prep, snap, &ask));
  LabeledGraphView view(snap.graph());
  const QueryOptions options{prep.parallel, planner};
  const auto* counts = snap.node_label_counts.get();

  // The enable decision is snapshotted once, here: a concurrent
  // SetEnabled flip mid-execution can therefore never produce a torn
  // tree — the profile is captured whole or not at all (the executor
  // gates node construction only on the installed trace).
  std::shared_ptr<const obs::ProfileNode> profile;
  RowSet rows;
  if (capture_profile && obs::kCompiledIn && obs::Registry::Enabled()) {
    obs::TraceContext ctx;
    obs::ScopedTrace trace(&ctx);
    KGQ_ASSIGN_OR_RETURN(rows, EvalQuery(view, cq, options, counts));
    profile = ctx.TakeProfile();
  } else {
    KGQ_ASSIGN_OR_RETURN(rows, EvalQuery(view, cq, options, counts));
  }

  QueryAnswer answer;
  answer.epoch = snap.epoch;
  answer.profile = std::move(profile);
  if (ask) {
    if (!rows.rows.empty()) answer.rows.push_back({});
  } else {
    answer.columns = std::move(rows.schema);
    answer.rows = std::move(rows.rows);
  }
  return answer;
}

/// Compile → PlanOverView → EXPLAIN (uncached; a debugging surface).
Result<std::string> ExplainPrepared(const Server::PreparedQuery& prep,
                                    const EpochSnapshot& snap,
                                    const PlannerOptions& planner) {
  bool ask = false;
  KGQ_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                       CompilePrepared(prep, snap, &ask));
  LabeledGraphView view(snap.graph());
  KGQ_ASSIGN_OR_RETURN(
      LogicalOpPtr plan,
      PlanOverView(view, cq, planner, snap.node_label_counts.get()));
  return ExplainPlan(*plan);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), cache_(options.cache_capacity) {
  options_.workers = std::clamp<size_t>(options_.workers, 1, kMaxWorkers);
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.default_query_threads == 0) options_.default_query_threads = 1;
  if (options_.max_query_threads == 0) options_.max_query_threads = 1;
}

EpochPtr Server::Publish() {
  const uint64_t before = store_.Acquire()->content_version;
  EpochPtr snap = store_.Publish();
  // Cached answers are keyed on content_version, so an empty publish
  // (same content, new epoch number) keeps every entry; responses served
  // from them get their epoch patched to the pinned snapshot's.
  if (snap->content_version != before) cache_.Invalidate();
  return snap;
}

Result<Server::PreparedQuery> Server::Prepare(const Request& req) const {
  PreparedQuery prep;
  prep.lang = req.lang;
  switch (req.lang) {
    case QueryLang::kMatch: {
      KGQ_ASSIGN_OR_RETURN(prep.match, ParseMatchQuery(req.text));
      prep.key = "match\n" + prep.match.ToString();
      break;
    }
    case QueryLang::kCrpq: {
      KGQ_ASSIGN_OR_RETURN(prep.crpq, ParseCrpq(req.text));
      prep.key = "crpq\n" + prep.crpq.ToString();
      break;
    }
    case QueryLang::kBgp: {
      KGQ_ASSIGN_OR_RETURN(prep.bgp, ParseBgp(req.text));
      prep.key = "bgp\n" + RenderBgpCanonical(prep.bgp);
      break;
    }
  }
  size_t threads = req.threads == 0 ? options_.default_query_threads
                                    : req.threads;
  prep.parallel.num_threads =
      std::min(threads, options_.max_query_threads);
  prep.profile = req.op == RequestOp::kQuery && req.profile;
  if (prep.profile) KGQ_COUNTER_INC("serve.profile.requests");
  return prep;
}

Result<QueryAnswer> Server::RunPrepared(const PreparedQuery& prep,
                                        const EpochPtr& snap) {
  QueryCache::Slot slot = cache_.Lookup(prep.key, snap->content_version);
  return FinishSlot(prep, snap, &slot);
}

Result<QueryAnswer> Server::FinishSlot(const PreparedQuery& prep,
                                       const EpochPtr& snap,
                                       QueryCache::Slot* slot) {
  if (slot->hit) {
    CachedAnswerPtr cached = slot->future.get();
    if (!cached->status.ok()) return cached->status;
    QueryAnswer answer = cached->answer;
    answer.cached = true;
    // The entry may predate an empty publish (same content version,
    // older epoch number); the response reports the pinned epoch.
    answer.epoch = snap->epoch;
    return answer;
  }
  auto cached = std::make_shared<CachedAnswer>();
  // Profile when the computing request asked, or whenever the slow
  // log is armed (its lines need per-operator attribution). Coalesced
  // requests waiting on this slot — and later cache hits — get this
  // computation's profile (or none), which keeps the profile member
  // deterministic: admission order decides who computes.
  const bool capture_profile =
      prep.profile || options_.slow_query_ns > 0;
  Result<QueryAnswer> computed =
      ComputePrepared(prep, *snap, options_.planner, capture_profile);
  if (computed.ok()) {
    cached->answer = std::move(computed).value();
  } else {
    cached->status = computed.status();
  }
  // Fill on every path — a forever-pending slot would hang coalesced
  // requests waiting on this computation.
  slot->fill->set_value(cached);
  if (!cached->status.ok()) return cached->status;
  QueryAnswer answer = cached->answer;
  answer.cached = false;
  return answer;
}

Result<QueryAnswer> Server::ExecuteQuery(const Request& req) {
  return ExecuteQueryAt(req, store_.Acquire());
}

Result<QueryAnswer> Server::ExecuteQueryAt(const Request& req,
                                           const EpochPtr& snap) {
  KGQ_COUNTER_INC("serve.requests");
  uint64_t start = obs::NowNanos();
  if (req.op != RequestOp::kQuery) {
    KGQ_COUNTER_INC("serve.errors");
    return Status::InvalidArgument("ExecuteQuery handles \"query\" requests");
  }
  Result<PreparedQuery> prep = Prepare(req);
  if (!prep.ok()) {
    KGQ_COUNTER_INC("serve.errors");
    return prep.status();
  }
  Result<QueryAnswer> answer = RunPrepared(*prep, snap);
  if (!answer.ok()) KGQ_COUNTER_INC("serve.errors");
  const uint64_t latency = obs::NowNanos() - start;
  RecordLatency(latency);
  MaybeLogSlow(req, latency, answer.ok() ? &*answer : nullptr);
  return answer;
}

std::string Server::HandleWriteOrStats(const Request& req) {
  switch (req.op) {
    case RequestOp::kAddNode:
      return RenderNode(req, store_.AddNode(req.label));
    case RequestOp::kInsertEdge: {
      Result<bool> applied = store_.InsertEdge(req.from, req.to, req.label);
      if (!applied.ok()) {
        KGQ_COUNTER_INC("serve.errors");
        return RenderError(req, applied.status());
      }
      return RenderApplied(req, *applied);
    }
    case RequestOp::kDeleteEdge: {
      Result<bool> applied = store_.DeleteEdge(req.from, req.to, req.label);
      if (!applied.ok()) {
        KGQ_COUNTER_INC("serve.errors");
        return RenderError(req, applied.status());
      }
      return RenderApplied(req, *applied);
    }
    case RequestOp::kPublish: {
      EpochPtr snap = Publish();
      return RenderPublish(req, snap->epoch, snap->num_nodes(),
                           snap->num_edges());
    }
    case RequestOp::kStats:
      return RenderStats(req, BuildStats());
    case RequestOp::kMetrics:
      return RenderMetrics(req, BuildMetrics());
    case RequestOp::kAnalytics:
      return HandleAnalytics(req);
    case RequestOp::kQuery:
    case RequestOp::kExplain:
      break;  // Not reached; queries go through Prepare/RunPrepared.
  }
  KGQ_COUNTER_INC("serve.errors");
  return RenderError(req, Status::Internal("misrouted request"));
}

std::string Server::HandleAnalytics(const Request& req) {
  KGQ_SPAN("serve.analytics");
  EpochPtr snap = store_.Acquire();
  if (req.has_node && req.node >= snap->num_nodes()) {
    KGQ_COUNTER_INC("serve.errors");
    return RenderError(req,
                       Status::InvalidArgument("analytics: no such node"));
  }
  AnalyticsBody body;
  body.epoch = snap->epoch;
  body.view = req.view;
  body.has_node = req.has_node;
  body.node = req.node;
  if (req.view == "components") {
    std::shared_ptr<const ComponentAssignment> comp = views_.Components(snap);
    body.num_components = comp->num_components;
    if (req.has_node) body.component = comp->component[req.node];
  } else if (req.view == "pagerank") {
    std::shared_ptr<const std::vector<int64_t>> rank = views_.PageRank(snap);
    if (req.has_node) body.rank = (*rank)[req.node];
    if (req.top > 0) {
      body.has_top = true;
      body.top.reserve(rank->size());
      for (NodeId n = 0; n < rank->size(); ++n) {
        body.top.emplace_back(n, (*rank)[n]);
      }
      const size_t k = std::min<size_t>(req.top, body.top.size());
      std::partial_sort(body.top.begin(), body.top.begin() + k,
                        body.top.end(),
                        [](const std::pair<NodeId, int64_t>& a,
                           const std::pair<NodeId, int64_t>& b) {
                          if (a.second != b.second) return a.second > b.second;
                          return a.first < b.first;
                        });
      body.top.resize(k);
    }
  } else {  // reach
    std::shared_ptr<const BoolCsr> closure =
        views_.Reachability(snap, req.label);
    body.label = req.label;
    if (req.has_node) {
      body.reach_nodes.assign(
          closure->cols.begin() +
              static_cast<ptrdiff_t>(closure->offsets[req.node]),
          closure->cols.begin() +
              static_cast<ptrdiff_t>(closure->offsets[req.node + 1]));
    } else {
      body.nnz = closure->nnz();
    }
  }
  return RenderAnalytics(req, body);
}

std::string Server::HandleLine(const std::string& line) {
  KGQ_COUNTER_INC("serve.requests");
  uint64_t start = obs::NowNanos();
  Request req;
  std::string resp;
  QueryAnswer done_answer;
  bool have_answer = false;
  Status parsed = ParseRequestLine(line, &req);
  if (!parsed.ok()) {
    KGQ_COUNTER_INC("serve.errors");
    resp = RenderError(req, parsed);
  } else if (req.op == RequestOp::kQuery || req.op == RequestOp::kExplain) {
    Result<PreparedQuery> prep = Prepare(req);
    if (!prep.ok()) {
      KGQ_COUNTER_INC("serve.errors");
      resp = RenderError(req, prep.status());
    } else {
      EpochPtr snap = store_.Acquire();
      if (req.op == RequestOp::kExplain) {
        Result<std::string> plan =
            ExplainPrepared(*prep, *snap, options_.planner);
        if (!plan.ok()) {
          KGQ_COUNTER_INC("serve.errors");
          resp = RenderError(req, plan.status());
        } else {
          resp = RenderExplain(req, snap->epoch, *plan);
        }
      } else {
        Result<QueryAnswer> answer = RunPrepared(*prep, snap);
        if (!answer.ok()) {
          KGQ_COUNTER_INC("serve.errors");
          resp = RenderError(req, answer.status());
        } else {
          resp = RenderAnswer(req, *answer);
          done_answer = std::move(*answer);
          have_answer = true;
        }
      }
    }
  } else {
    resp = HandleWriteOrStats(req);
  }
  const uint64_t latency = obs::NowNanos() - start;
  RecordLatency(latency);
  MaybeLogSlow(req, latency, have_answer ? &done_answer : nullptr);
  return resp;
}

StatsBody Server::BuildStats() {
  StatsBody s;
  s.epoch = store_.CurrentEpoch();
  s.nodes = store_.NumNodes();
  s.edges = store_.NumLiveEdges();
  s.pending = store_.PendingOps();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_size = cache_.size();
  s.writes_applied = store_.WritesApplied();
  s.writes_noop = store_.WritesNoop();
  s.p50_ns = latency_.Quantile(50);
  s.p99_ns = latency_.Quantile(99);
  return s;
}

MetricsBody Server::BuildMetrics() {
  MetricsBody m;
  m.epoch = store_.CurrentEpoch();
  m.samples = latency_.WindowSize();
  m.p50_ns = latency_.Quantile(50);
  m.p95_ns = latency_.Quantile(95);
  m.p99_ns = latency_.Quantile(99);
  std::ostringstream os;
  obs::JsonWriter w(os, /*compact=*/true);
  obs::Registry::Get().WriteJson(&w);
  m.registry_json = os.str();
  return m;
}

std::string Server::MetricsJson() {
  Request req;  // No correlation id: the periodic-export shape.
  return RenderMetrics(req, BuildMetrics());
}

void Server::RecordLatency(uint64_t latency_ns) {
  KGQ_HISTOGRAM_RECORD("serve.latency_ns", latency_ns);
  latency_.Record(latency_ns);
}

void Server::MaybeLogSlow(const Request& req, uint64_t latency_ns,
                          const QueryAnswer* answer) {
  if (options_.slow_query_ns == 0 || latency_ns < options_.slow_query_ns) {
    return;
  }
  if (req.op != RequestOp::kQuery) return;
  KGQ_COUNTER_INC("serve.profile.slow");

  // Top-3 operators by (inclusive) wall time, from the profile tree the
  // armed slow log made every computation capture. A cache hit may
  // carry the computing request's tree; an obs-disabled run has none.
  std::vector<const obs::ProfileNode*> ops;
  if (answer != nullptr && answer->profile != nullptr) {
    std::vector<const obs::ProfileNode*> stack = {answer->profile.get()};
    while (!stack.empty()) {
      const obs::ProfileNode* node = stack.back();
      stack.pop_back();
      ops.push_back(node);
      for (const auto& child : node->children) stack.push_back(child.get());
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const obs::ProfileNode* a, const obs::ProfileNode* b) {
                       return a->time_ns > b->time_ns;
                     });
    if (ops.size() > 3) ops.resize(3);
  }

  std::string line = "{\"slow_query\":{\"lang\":";
  AppendJsonString(&line, QueryLangName(req.lang));
  line += ",\"text\":";
  AppendJsonString(&line, req.text);
  line += ",\"epoch\":";
  line += std::to_string(answer != nullptr ? answer->epoch : 0);
  line += ",\"cached\":";
  line += (answer != nullptr && answer->cached) ? "true" : "false";
  line += ",\"time_ns\":";
  line += std::to_string(latency_ns);
  line += ",\"top_ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) line += ',';
    line += "{\"op\":";
    AppendJsonString(&line, ops[i]->kind);
    if (!ops[i]->engine.empty()) {
      line += ",\"engine\":";
      AppendJsonString(&line, ops[i]->engine);
    }
    line += ",\"rows_out\":";
    line += std::to_string(ops[i]->rows_out);
    line += ",\"time_ns\":";
    line += std::to_string(ops[i]->time_ns);
    line += '}';
  }
  line += "]}}";

  std::ostream* out =
      options_.slow_log != nullptr ? options_.slow_log : &std::cerr;
  std::lock_guard<std::mutex> lock(slow_mu_);
  *out << line << '\n';
  out->flush();
}

/// Shared state of one ServeStream run: the bounded job queue feeding
/// the workers and the reorder buffer serializing responses back into
/// input order.
struct Server::StreamState {
  struct Job {
    uint64_t seq = 0;
    Request req;
    PreparedQuery prep;
    EpochPtr snap;
    QueryCache::Slot slot;
    uint64_t admit_ns = 0;
  };

  explicit StreamState(std::ostream& o) : out(o) {}

  std::mutex mu;
  std::condition_variable cv_space;  // Dispatcher waits for queue room.
  std::condition_variable cv_work;   // Workers wait for jobs.
  std::deque<Job> queue;
  bool done = false;

  std::mutex emit_mu;
  std::map<uint64_t, std::string> reorder;
  uint64_t next_emit = 0;
  std::ostream& out;

  /// Hands one response line to the reorder buffer; flushes every line
  /// that is now next in input order.
  void Emit(uint64_t seq, std::string line) {
    std::lock_guard<std::mutex> lock(emit_mu);
    reorder.emplace(seq, std::move(line));
    bool wrote = false;
    for (auto it = reorder.find(next_emit); it != reorder.end();
         it = reorder.find(next_emit)) {
      out << it->second << '\n';
      reorder.erase(it);
      ++next_emit;
      wrote = true;
    }
    if (wrote) out.flush();
  }
};

void Server::ServeStream(std::istream& in, std::ostream& out) {
  StreamState state(out);

  // FIFO pop order plus admission-order cache lookups make the worker
  // pool deadlock-free under request coalescing: the computing (miss)
  // job always precedes the jobs waiting on its future.
  std::vector<std::thread> workers;
  workers.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers.emplace_back([this, &state] {
      for (;;) {
        StreamState::Job job;
        {
          std::unique_lock<std::mutex> lock(state.mu);
          state.cv_work.wait(
              lock, [&state] { return state.done || !state.queue.empty(); });
          if (state.queue.empty()) return;  // done and drained.
          job = std::move(state.queue.front());
          state.queue.pop_front();
          KGQ_GAUGE_SET("serve.queue.depth", state.queue.size());
        }
        state.cv_space.notify_one();
        Result<QueryAnswer> answer =
            FinishSlot(job.prep, job.snap, &job.slot);
        std::string resp;
        if (!answer.ok()) {
          KGQ_COUNTER_INC("serve.errors");
          resp = RenderError(job.req, answer.status());
        } else {
          resp = RenderAnswer(job.req, *answer);
        }
        const uint64_t latency = obs::NowNanos() - job.admit_ns;
        RecordLatency(latency);
        MaybeLogSlow(job.req, latency, answer.ok() ? &*answer : nullptr);
        state.Emit(job.seq, std::move(resp));
      }
    });
  }

  std::string line;
  uint64_t seq = 0;
  while (std::getline(in, line)) {
    const uint64_t my_seq = seq++;
    KGQ_COUNTER_INC("serve.requests");
    const uint64_t admit_ns = obs::NowNanos();
    Request req;
    Status parsed = ParseRequestLine(line, &req);
    if (!parsed.ok()) {
      KGQ_COUNTER_INC("serve.errors");
      state.Emit(my_seq, RenderError(req, parsed));
      RecordLatency(obs::NowNanos() - admit_ns);
      continue;
    }
    if (req.op == RequestOp::kQuery) {
      Result<PreparedQuery> prep = Prepare(req);
      if (!prep.ok()) {
        KGQ_COUNTER_INC("serve.errors");
        state.Emit(my_seq, RenderError(req, prep.status()));
        RecordLatency(obs::NowNanos() - admit_ns);
        continue;
      }
      // Pin the epoch and resolve the cache *at admission*, in input
      // order — this is what makes hit/miss (and the whole response
      // stream) deterministic for any worker count.
      StreamState::Job job;
      job.seq = my_seq;
      job.req = std::move(req);
      job.prep = std::move(*prep);
      job.snap = store_.Acquire();
      job.slot = cache_.Lookup(job.prep.key, job.snap->content_version);
      job.admit_ns = admit_ns;
      {
        std::unique_lock<std::mutex> lock(state.mu);
        state.cv_space.wait(lock, [this, &state] {
          return state.queue.size() < options_.queue_capacity;
        });
        state.queue.push_back(std::move(job));
        KGQ_GAUGE_SET("serve.queue.depth", state.queue.size());
      }
      state.cv_work.notify_one();
      continue;
    }
    // Writes, publish, stats, explain and analytics run on the
    // dispatcher: writes must be serialized in input order, and admission
    // waits while the others run. Stats and explain are cheap. An
    // analytics lookup is a view hit, or after a publish one view
    // update; for PageRank that is a single-threaded rebuild, about 7 ms
    // on an 11.5k-node / 72k-edge graph (4-core x86), during which no
    // request is admitted.
    std::string resp;
    if (req.op == RequestOp::kExplain) {
      Result<PreparedQuery> prep = Prepare(req);
      if (!prep.ok()) {
        KGQ_COUNTER_INC("serve.errors");
        resp = RenderError(req, prep.status());
      } else {
        EpochPtr snap = store_.Acquire();
        Result<std::string> plan =
            ExplainPrepared(*prep, *snap, options_.planner);
        if (!plan.ok()) {
          KGQ_COUNTER_INC("serve.errors");
          resp = RenderError(req, plan.status());
        } else {
          resp = RenderExplain(req, snap->epoch, *plan);
        }
      }
    } else {
      resp = HandleWriteOrStats(req);
    }
    state.Emit(my_seq, std::move(resp));
    RecordLatency(obs::NowNanos() - admit_ns);
  }

  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.done = true;
  }
  state.cv_work.notify_all();
  for (std::thread& t : workers) t.join();
}

Result<QueryAnswer> EvalServeQuery(const Request& req,
                                   const EpochSnapshot& snap,
                                   const PlannerOptions& planner) {
  if (req.op != RequestOp::kQuery) {
    return Status::InvalidArgument("EvalServeQuery replays \"query\" requests");
  }
  Server::PreparedQuery prep;
  prep.lang = req.lang;
  switch (req.lang) {
    case QueryLang::kMatch: {
      KGQ_ASSIGN_OR_RETURN(prep.match, ParseMatchQuery(req.text));
      break;
    }
    case QueryLang::kCrpq: {
      KGQ_ASSIGN_OR_RETURN(prep.crpq, ParseCrpq(req.text));
      break;
    }
    case QueryLang::kBgp: {
      KGQ_ASSIGN_OR_RETURN(prep.bgp, ParseBgp(req.text));
      break;
    }
  }
  prep.parallel.num_threads = 1;  // The single-threaded reference path.
  return ComputePrepared(prep, snap, planner);
}

}  // namespace serve
}  // namespace kgq
