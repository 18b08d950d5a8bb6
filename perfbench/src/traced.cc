#include "traced.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "pathalg/cfpq_matrix.h"
#include "pathalg/pairs.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rdf/convert.h"
#include "report.h"
#include "rpq/crpq.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/view_cache.h"
#include "verify.h"

namespace perfbench {

using kgq::NodeId;
using kgq::serve::EpochPtr;
using kgq::serve::Request;
using kgq::serve::RequestOp;

namespace {

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as jsonl when the run ends.

struct Span {
  const char* name;
  uint64_t start;
  uint64_t end;
  int64_t parent;    // index into the span list, -1 for a root
  uint64_t request;  // index of the request in the replayed stream
};

class Tracer {
 public:
  /// Opens a span; returns its index.
  size_t Open(const char* name, int64_t parent, uint64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return spans_.size() - 1;
  }
  /// Closes span `i`; returns its duration in ns.
  uint64_t Close(size_t i) {
    spans_[i].end = NowNs();
    return spans_[i].end - spans_[i].start;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

  /// Per span name: calls, total and self time (total minus the part
  /// covered by direct children).
  struct Row {
    size_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> SelfTimes() const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
    }
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double total = static_cast<double>(spans_[i].end - spans_[i].start);
      ++r.calls;
      r.total_ms += total * 1e-6;
      r.self_ms += (total - static_cast<double>(child_ns[i])) * 1e-6;
    }
    return rows;
  }

 private:
  std::vector<Span> spans_;
};

/// Registry counters / histogram sums read around a call.
uint64_t CounterNow(const char* name) {
  return kgq::obs::Registry::Get().GetCounter(name)->Value();
}
uint64_t HistSumNow(const char* name) {
  return kgq::obs::Registry::Get().GetHistogram(name)->Sum();
}
uint64_t HistCountNow(const char* name) {
  return kgq::obs::Registry::Get().GetHistogram(name)->Count();
}

/// Mean of a sample list; 0 when empty.
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// Query lowering, step by step through the public front-end and planner
// functions (the server does the same inside ExecuteQueryAt).

/// The serving layer's BGP lowering: "n<i>" constants are node ids and
/// `kgq:label` with a constant object is a node-label test. Mirrors the
/// server's private lowering; the traced run checks that both agree by
/// comparing rows with the served answer.
kgq::Result<kgq::ConjunctiveQuery> LowerServeBgp(
    const std::vector<kgq::TriplePattern>& patterns, size_t num_nodes) {
  std::set<std::string> user_vars;
  for (const kgq::TriplePattern& p : patterns) {
    if (p.s.is_var) user_vars.insert(p.s.text);
    if (p.o.is_var) user_vars.insert(p.o.text);
  }
  kgq::ConjunctiveQuery cq;
  size_t next_const = 0;
  auto var_of = [&](const kgq::Term& t) -> std::string {
    if (t.is_var) return t.text;
    std::string name = "$c" + std::to_string(next_const++);
    while (user_vars.count(name) > 0) name += "_";
    NodeId node = kgq::kNoNode;
    if (t.text.size() > 1 && t.text[0] == 'n') {
      const uint64_t v = std::strtoull(t.text.c_str() + 1, nullptr, 10);
      if (v < num_nodes) node = static_cast<NodeId>(v);
    }
    cq.bound[name] = node;
    return name;
  };
  for (const kgq::TriplePattern& p : patterns) {
    if (p.path == nullptr && !p.p.is_var &&
        p.p.text == kgq::kNodeLabelPredicate) {
      std::string v = var_of(p.s);
      kgq::TestPtr test = kgq::TestExpr::Label(p.o.text);
      auto it = cq.node_tests.find(v);
      cq.node_tests[v] = it == cq.node_tests.end()
                             ? test
                             : kgq::TestExpr::And(it->second, test);
      continue;
    }
    kgq::RegexPtr path =
        p.path != nullptr ? p.path : kgq::Regex::EdgeLabel(p.p.text);
    cq.atoms.push_back({var_of(p.s), var_of(p.o), std::move(path)});
  }
  cq.projection.assign(user_vars.begin(), user_vars.end());
  if (cq.projection.empty()) cq.projection.push_back(cq.bound.begin()->first);
  return cq;
}

/// Front-end parse + compile to the IR, per language.
kgq::Result<kgq::ConjunctiveQuery> CompileFrontEnd(const Request& req,
                                                   size_t num_nodes) {
  switch (req.lang) {
    case kgq::serve::QueryLang::kMatch: {
      KGQ_ASSIGN_OR_RETURN(kgq::MatchQuery q, kgq::ParseMatchQuery(req.text));
      return kgq::CompileMatch(q);
    }
    case kgq::serve::QueryLang::kCrpq: {
      KGQ_ASSIGN_OR_RETURN(kgq::Crpq q, kgq::ParseCrpq(req.text));
      return kgq::CompileCrpq(q);
    }
    case kgq::serve::QueryLang::kBgp: {
      KGQ_ASSIGN_OR_RETURN(std::vector<kgq::TriplePattern> q,
                           kgq::ParseBgp(req.text));
      return LowerServeBgp(q, num_nodes);
    }
  }
  return kgq::Status::Internal("unknown language");
}

void CollectAtoms(const kgq::LogicalOp& op, size_t* atoms, size_t* matrix) {
  if (op.kind == kgq::LogicalKind::kPathAtom) {
    ++*atoms;
    if (op.use_matrix_rpq) ++*matrix;
  }
  for (const kgq::LogicalOpPtr& c : op.children) CollectAtoms(*c, atoms, matrix);
}

uint64_t PathAtomNs(const kgq::obs::ProfileNode& node) {
  uint64_t ns = node.kind == "PathAtom" ? node.time_ns : 0;
  if (ns > 0) return ns;  // atoms do not nest
  for (const auto& c : node.children) ns += PathAtomNs(*c);
  return ns;
}

/// Everything the traced replay measures, as sample lists.
struct LayerSamples {
  std::vector<double> parse_us, render_us, response_bytes, execute_us;
  std::vector<double> publish_ms, delta_edges, apply_delta_ms, lazy_graph_ms;
  std::map<std::string, std::vector<double>> view_ms;
  std::map<std::string, std::vector<double>> compile_us;  // by language
  std::vector<double> stats_us, plan_us, exec_ms, exec_self_ms, qerror;
  std::vector<double> service_ms;  // per request, index-aligned
  size_t queries = 0, cache_hits = 0;
  size_t path_atoms = 0, matrix_atoms = 0;
  double rows_examined = 0, rows_returned = 0;
  double breakdown_ms = 0, execute_miss_ms = 0;
  size_t breakdown_mismatches = 0;
};

/// The server options a workload runs kgq-serve with.
kgq::serve::ServerOptions OptionsFor(const WorkloadSpec& spec) {
  kgq::serve::ServerOptions o;
  o.workers = spec.workers;
  o.max_query_threads = 4;
  if (!spec.cache) o.cache_capacity = 0;
  return o;
}

/// Replays `requests` in-process with a span around every layer call.
/// Returns the main-timeline wall time in ns (breakdown re-executions,
/// which only exist to split a query's cost by layer, are excluded).
uint64_t TracedReplay(const WorkloadSpec& spec, const kgq::LabeledGraph& graph,
                      const std::vector<BenchRequest>& requests,
                      Tracer* tracer, LayerSamples* out,
                      std::map<std::string, double>* counts) {
  kgq::serve::Server srv(OptionsFor(spec));
  kgq::serve::ViewCache views;
  LoadGraph(graph, &srv.store());
  EpochPtr snap = srv.Publish();
  // Views the replay never asks for still report their set-up build.
  std::map<std::string, double> cold_view_ms;
  {
    uint64_t t = NowNs();
    views.Components(snap);
    cold_view_ms["components"] = Ms(NowNs() - t);
    t = NowNs();
    views.PageRank(snap);
    cold_view_ms["pagerank"] = Ms(NowNs() - t);
    t = NowNs();
    views.Reachability(snap, "cites");
    cold_view_ms["reach"] = Ms(NowNs() - t);
  }
  std::set<uint64_t> graph_built = {snap->epoch};
  snap->graph();

  const char* kCounters[] = {"serve.cache.invalidate", "serve.view.advance",
                             "serve.view.rebuild",     "serve.view.fallback",
                             "matrix_rpq.spgemm.delta_rows"};
  std::map<std::string, uint64_t> before;
  for (const char* c : kCounters) before[c] = CounterNow(c);
  const uint64_t warm_it_sum = HistSumNow("pagerank.warm_iterations");
  const uint64_t warm_it_count = HistCountNow("pagerank.warm_iterations");
  uint64_t nfa_edges = 0, word_ops = 0, fix_iters = 0, cfpq_rounds = 0;

  uint64_t wall = 0;
  out->service_ms.assign(requests.size(), 0.0);
  for (size_t i = 0; i < requests.size(); ++i) {
    const BenchRequest& r = requests[i];
    const size_t root = tracer->Open("request", -1, i);
    size_t s = tracer->Open("serve.protocol.parse", root, i);
    Request req;
    const kgq::Status parsed = kgq::serve::ParseRequestLine(r.line, &req);
    out->parse_us.push_back(Ms(tracer->Close(s)) * 1e3);
    std::string response;
    kgq::serve::QueryAnswer answer;
    bool miss = false;
    if (!parsed.ok()) {
      s = tracer->Open("serve.protocol.render", root, i);
      response = kgq::serve::RenderError(req, parsed);
      out->render_us.push_back(Ms(tracer->Close(s)) * 1e3);
    } else if (req.op == RequestOp::kInsertEdge ||
               req.op == RequestOp::kDeleteEdge) {
      s = tracer->Open("serve.delta_store.write", root, i);
      kgq::Result<bool> applied =
          req.op == RequestOp::kInsertEdge
              ? srv.store().InsertEdge(req.from, req.to, req.label)
              : srv.store().DeleteEdge(req.from, req.to, req.label);
      tracer->Close(s);
      s = tracer->Open("serve.protocol.render", root, i);
      response = applied.ok()
                     ? kgq::serve::RenderApplied(req, *applied)
                     : kgq::serve::RenderError(req, applied.status());
      out->render_us.push_back(Ms(tracer->Close(s)) * 1e3);
    } else if (req.op == RequestOp::kPublish) {
      s = tracer->Open("serve.delta_store.publish", root, i);
      snap = srv.Publish();
      out->publish_ms.push_back(Ms(tracer->Close(s)));
      out->delta_edges.push_back(static_cast<double>(
          snap->delta.inserted.size() + snap->delta.deleted.size()));
      s = tracer->Open("serve.protocol.render", root, i);
      response = kgq::serve::RenderPublish(req, snap->epoch, snap->num_nodes(),
                                           snap->num_edges());
      out->render_us.push_back(Ms(tracer->Close(s)) * 1e3);
    } else if (req.op == RequestOp::kAnalytics) {
      s = tracer->Open(req.view == "pagerank"     ? "serve.view_cache.pagerank"
                       : req.view == "components" ? "serve.view_cache.components"
                                                  : "serve.view_cache.reach",
                       root, i);
      response = RenderViewAnswer(req, snap, &views);
      out->view_ms[req.view].push_back(Ms(tracer->Close(s)));
    } else if (req.op == RequestOp::kQuery) {
      ++out->queries;
      if (graph_built.insert(snap->epoch).second) {
        s = tracer->Open("graph.lazy_graph", root, i);
        snap->graph();
        out->lazy_graph_ms.push_back(Ms(tracer->Close(s)));
      }
      s = tracer->Open("serve.server.execute", root, i);
      kgq::Result<kgq::serve::QueryAnswer> got = srv.ExecuteQueryAt(req, snap);
      const uint64_t exec_ns = tracer->Close(s);
      out->execute_us.push_back(Ms(exec_ns) * 1e3);
      s = tracer->Open("serve.protocol.render", root, i);
      if (got.ok()) {
        answer = std::move(*got);
        response = kgq::serve::RenderAnswer(req, answer);
        if (answer.cached) ++out->cache_hits;
        miss = !answer.cached;
        if (miss) out->execute_miss_ms += Ms(exec_ns);
      } else {
        response = kgq::serve::RenderError(req, got.status());
      }
      out->render_us.push_back(Ms(tracer->Close(s)) * 1e3);
    } else {
      response = "{}";
    }
    out->response_bytes.push_back(static_cast<double>(response.size()));
    const uint64_t service = tracer->Close(root);
    out->service_ms[i] = Ms(service);
    wall += service;

    if (!miss) continue;
    // Breakdown of a computed (cache-missing) answer by layer: the same
    // query lowered and run step by step through the public functions.
    const uint64_t b0 = NowNs();
    const size_t bd = tracer->Open("breakdown", -1, i);
    const char* front = req.lang == kgq::serve::QueryLang::kMatch
                            ? "query.match_query.compile"
                        : req.lang == kgq::serve::QueryLang::kCrpq
                            ? "rpq.crpq.compile"
                            : "rdf.bgp.compile";
    s = tracer->Open(front, bd, i);
    kgq::Result<kgq::ConjunctiveQuery> cq = CompileFrontEnd(req, snap->num_nodes());
    out->compile_us[front].push_back(Ms(tracer->Close(s)) * 1e3);
    if (!cq.ok()) {
      tracer->Close(bd);
      continue;
    }
    kgq::LabeledGraphView view(snap->graph());
    s = tracer->Open("plan.stats.build", bd, i);
    kgq::GraphStats stats = kgq::GraphStats::From(
        &view, snap->csr.get(), snap->node_label_counts.get());
    out->stats_us.push_back(Ms(tracer->Close(s)) * 1e3);
    s = tracer->Open("plan.optimizer.plan", bd, i);
    kgq::Result<kgq::LogicalOpPtr> plan = kgq::PlanQuery(*cq, stats);
    out->plan_us.push_back(Ms(tracer->Close(s)) * 1e3);
    if (!plan.ok()) {
      tracer->Close(bd);
      continue;
    }
    CollectAtoms(**plan, &out->path_atoms, &out->matrix_atoms);
    kgq::ExecOptions eopts;
    eopts.parallel.num_threads = std::max<size_t>(1, req.threads);
    eopts.snapshot = snap->csr.get();
    const uint64_t c_nfa = CounterNow("rpq.step.edges_scanned") +
                           CounterNow("rpq.successor.edges_scanned");
    const uint64_t c_words = CounterNow("matrix_rpq.spgemm.word_ops");
    const uint64_t c_iters = HistSumNow("matrix_rpq.fixpoint_iterations");
    const uint64_t c_rounds = HistSumNow("cfpq.fixpoint_rounds");
    uint64_t c_rows = 0;
    const char* kRowCounters[] = {"plan.rows.edge_scan", "plan.rows.node_scan",
                                  "plan.rows.path_atom", "plan.rows.hash_join",
                                  "plan.rows.filter"};
    for (const char* c : kRowCounters) c_rows += CounterNow(c);
    kgq::obs::TraceContext ctx;
    s = tracer->Open("plan.exec.execute", bd, i);
    kgq::Result<kgq::RowSet> rows = [&] {
      kgq::obs::ScopedTrace scoped(&ctx);
      return kgq::ExecutePlan(view, **plan, eopts);
    }();
    const uint64_t exec_ns = tracer->Close(s);
    tracer->Close(bd);
    out->breakdown_ms += Ms(NowNs() - b0);
    out->exec_ms.push_back(Ms(exec_ns));
    std::shared_ptr<const kgq::obs::ProfileNode> profile = ctx.TakeProfile();
    const uint64_t atom_ns = profile != nullptr ? PathAtomNs(*profile) : 0;
    out->exec_self_ms.push_back(Ms(exec_ns - std::min(exec_ns, atom_ns)));
    nfa_edges += CounterNow("rpq.step.edges_scanned") +
                 CounterNow("rpq.successor.edges_scanned") - c_nfa;
    word_ops += CounterNow("matrix_rpq.spgemm.word_ops") - c_words;
    fix_iters += HistSumNow("matrix_rpq.fixpoint_iterations") - c_iters;
    cfpq_rounds += HistSumNow("cfpq.fixpoint_rounds") - c_rounds;
    uint64_t rows_after = 0;
    for (const char* c : kRowCounters) rows_after += CounterNow(c);
    if (!rows.ok()) continue;
    const double actual = static_cast<double>(rows->rows.size());
    out->rows_examined += static_cast<double>(rows_after - c_rows);
    out->rows_returned += std::max(actual, 1.0);
    const double est = std::max((*plan)->est_rows, 1.0);
    out->qerror.push_back(std::max(est / std::max(actual, 1.0),
                                   std::max(actual, 1.0) / est));
    const bool ask = rows->schema.size() == 1 && answer.columns.empty();
    if (!ask && (rows->rows != answer.rows || rows->schema != answer.columns)) {
      ++out->breakdown_mismatches;
    }
  }

  for (const char* c : kCounters) {
    (*counts)[c] = static_cast<double>(CounterNow(c) - before[c]);
  }
  const uint64_t it_count = HistCountNow("pagerank.warm_iterations") - warm_it_count;
  (*counts)["pagerank.warm_iterations"] =
      it_count == 0 ? 0.0
                    : static_cast<double>(HistSumNow("pagerank.warm_iterations") -
                                          warm_it_sum) /
                          static_cast<double>(it_count);
  (*counts)["nfa.edges_scanned"] = static_cast<double>(nfa_edges);
  (*counts)["matrix.word_ops"] = static_cast<double>(word_ops);
  (*counts)["matrix.fixpoint_iterations"] = static_cast<double>(fix_iters);
  (*counts)["cfpq.rounds"] = static_cast<double>(cfpq_rounds);
  for (const auto& [view, ms] : cold_view_ms) {
    if (out->view_ms[view].empty()) out->view_ms[view].push_back(ms);
  }
  return wall;
}

/// The same requests through Server::HandleLine with no spans: the
/// untraced reference for the tracing overhead.
uint64_t UntracedReplay(const WorkloadSpec& spec, const StreamGenerator& gen,
                        const std::vector<BenchRequest>& requests) {
  kgq::serve::Server srv(OptionsFor(spec));
  LoadGraph(gen.graph(), &srv.store());
  srv.Publish();
  for (const std::string& line : gen.WarmLines()) srv.HandleLine(line);
  const uint64_t t0 = NowNs();
  for (const BenchRequest& r : requests) srv.HandleLine(r.line);
  return NowNs() - t0;
}

// ---------------------------------------------------------------------------
// Kernel probes: a fixed set of path kernels, at 1 and 4 threads and
// with obs enabled and disabled.

struct KernelTimes {
  double nfa_ms = 0, matrix_ms = 0, cfpq_ms = 0;  // 1 thread, obs on
  double nfa_t4 = 0, matrix_t4 = 0, cfpq_t4 = 0;  // speedups t1 / t4
  double obs_overhead = 0;
  double helper_share = 0, idle_ms = 0;
  bool ok = true;
};

KernelTimes ProbeKernels(const kgq::LabeledGraph& graph) {
  KernelTimes k;
  kgq::LabeledGraphView view(graph);
  const kgq::CsrSnapshot csr = kgq::CsrSnapshot::FromLabeledEdges(
      graph.topology(), [&](kgq::EdgeId e) { return graph.EdgeLabelString(e); });
  std::vector<kgq::PathNfa> nfas;
  for (const char* re : {"cites / cites", "writes / writes^-"}) {
    kgq::Result<kgq::RegexPtr> regex = kgq::ParseRegex(re);
    if (!regex.ok()) {
      k.ok = false;
      return k;
    }
    kgq::Result<kgq::PathNfa> nfa = kgq::PathNfa::Compile(view, **regex);
    if (!nfa.ok() || !nfa->AttachSnapshot(&csr).ok()) {
      k.ok = false;
      return k;
    }
    nfas.push_back(std::move(*nfa));
  }
  kgq::Result<kgq::Crpq> sg = kgq::ParseCrpq(
      "grammar SG { SG -> in SG in^- | in in^- } q(x, y) :- (x) -[ SG ]-> (y)");
  if (!sg.ok() || sg->grammars.empty()) {
    k.ok = false;
    return k;
  }
  const kgq::CnfGrammarPtr cnf = sg->grammars[0];

  // One timed call of each kernel family; median of three repetitions.
  auto time_family = [&](int family, size_t threads) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t t0 = NowNs();
      if (family == 2) {
        kgq::ParallelOptions par;
        par.num_threads = threads;
        (void)kgq::CfpqSolveMatrix(csr, *cnf, cnf->start(), par);
      } else {
        for (const kgq::PathNfa& nfa : nfas) {
          kgq::PathQueryOptions opts;
          opts.parallel.num_threads = threads;
          opts.engine = family == 0 ? kgq::PathEngine::kNfa
                                    : kgq::PathEngine::kMatrix;
          (void)kgq::AllPairs(nfa, opts);
        }
      }
      reps.push_back(Ms(NowNs() - t0));
    }
    return Median(reps);
  };

  kgq::obs::Registry::SetEnabled(true);
  const uint64_t helper0 = CounterNow("parallel_for.chunks_helper");
  const uint64_t caller0 = CounterNow("parallel_for.chunks_caller");
  const uint64_t idle0 = HistSumNow("threadpool.idle_ns");
  double on[3][2];
  for (int f = 0; f < 3; ++f) {
    on[f][0] = time_family(f, 1);
    on[f][1] = time_family(f, 4);
  }
  const uint64_t helper = CounterNow("parallel_for.chunks_helper") - helper0;
  const uint64_t caller = CounterNow("parallel_for.chunks_caller") - caller0;
  k.helper_share = helper + caller == 0
                       ? 0.0
                       : static_cast<double>(helper) /
                             static_cast<double>(helper + caller);
  k.idle_ms = Ms(HistSumNow("threadpool.idle_ns") - idle0);
  kgq::obs::Registry::SetEnabled(false);
  double off_total = 0, on_total = 0;
  for (int f = 0; f < 3; ++f) {
    for (int t = 0; t < 2; ++t) {
      off_total += time_family(f, t == 0 ? 1 : 4);
      on_total += on[f][t];
    }
  }
  kgq::obs::Registry::SetEnabled(true);
  k.obs_overhead = (on_total - off_total) / off_total;
  k.nfa_ms = on[0][0];
  k.matrix_ms = on[1][0];
  k.cfpq_ms = on[2][0];
  k.nfa_t4 = on[0][0] / on[0][1];
  k.matrix_t4 = on[1][0] / on[1][1];
  k.cfpq_t4 = on[2][0] / on[2][1];
  return k;
}

/// Chosen-engine time over the best of NFA and matrix for every query
/// template of the workload that has a path atom (geometric mean).
double EngineRegret(const WorkloadSpec& spec, uint64_t seed,
                    const kgq::LabeledGraph& graph) {
  StreamGenerator gen(spec, seed);
  std::map<std::string, Request> templates;  // one per query shape
  for (int i = 0; i < 400 && templates.size() < 8; ++i) {
    BenchRequest r = gen.Next();
    if (r.kind != Kind::kQuery) continue;
    Request req;
    if (!kgq::serve::ParseRequestLine(r.line, &req).ok()) continue;
    std::string shape;
    for (char c : req.text) shape.push_back(c >= '0' && c <= '9' ? '#' : c);
    templates.emplace(shape, req);
  }
  kgq::LabeledGraphView view(graph);
  const kgq::CsrSnapshot csr = kgq::CsrSnapshot::FromLabeledEdges(
      graph.topology(), [&](kgq::EdgeId e) { return graph.EdgeLabelString(e); });
  const kgq::GraphStats stats = kgq::GraphStats::From(&view, &csr);
  double log_sum = 0;
  size_t n = 0;
  for (const auto& [shape, req] : templates) {
    kgq::Result<kgq::ConjunctiveQuery> cq = CompileFrontEnd(req, graph.num_nodes());
    if (!cq.ok()) continue;
    double t[3] = {0, 0, 0};
    bool has_atom = false;
    bool planned = true;
    const kgq::MatrixRpqMode modes[3] = {kgq::MatrixRpqMode::kAuto,
                                         kgq::MatrixRpqMode::kOff,
                                         kgq::MatrixRpqMode::kAlways};
    for (int m = 0; m < 3; ++m) {
      kgq::PlannerOptions popts;
      popts.matrix_rpq = modes[m];
      kgq::Result<kgq::LogicalOpPtr> plan = kgq::PlanQuery(*cq, stats, popts);
      if (!plan.ok()) {
        planned = false;
        break;
      }
      size_t atoms = 0, matrix = 0;
      CollectAtoms(**plan, &atoms, &matrix);
      has_atom = atoms > 0;
      kgq::ExecOptions eopts;
      eopts.parallel.num_threads = spec.query_threads;
      eopts.snapshot = &csr;
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        const uint64_t t0 = NowNs();
        (void)kgq::ExecutePlan(view, **plan, eopts);
        reps.push_back(Ms(NowNs() - t0));
      }
      t[m] = Median(reps);
    }
    if (!planned || !has_atom) continue;
    log_sum += std::log(t[0] / std::min(t[1], t[2]));
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace

int RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
              const std::string& server_binary, const std::string& out_dir) {
  const uint64_t run_start = NowNs();
  // Phase A: a shorter served run, for end-to-end latencies per request
  // (the reference that the layer service times are subtracted from).
  ServedRun served =
      RunServed(spec, seed, seconds * 0.4, 0.0, server_binary, out_dir, 1);
  if (served.error.empty() && served.requests.empty()) {
    served.error = "nothing was sent";
  }
  if (!served.error.empty()) {
    std::fprintf(stderr, "kgqbench: %s\n", served.error.c_str());
    return 1;
  }
  const VerifyResult verify = VerifyResponses(
      served.gen->graph(), served.requests, served.exchange.responses, 4);
  for (const std::string& e : verify.examples) {
    std::fprintf(stderr, "kgqbench: MISMATCH %s\n", e.c_str());
  }

  // Phase B: replay a prefix of the same stream in-process, traced. The
  // prefix is as long as fits in a third of the run.
  const kgq::LabeledGraph& graph = served.gen->graph();
  std::vector<BenchRequest> prefix;
  {
    double est_ms = 0;
    const double budget_ms = seconds * 1e3 / 3.0;
    for (size_t i = 0; i < served.requests.size() && est_ms < budget_ms; ++i) {
      prefix.push_back(served.requests[i]);
      est_ms += Ms(served.exchange.recv_ns[i] - served.exchange.send_ns[i]) /
                static_cast<double>(spec.window);
    }
  }
  Tracer tracer;
  LayerSamples L;
  std::map<std::string, double> counts;
  const uint64_t traced_ns =
      TracedReplay(spec, graph, prefix, &tracer, &L, &counts);
  // Phase C: the same prefix untraced.
  const uint64_t untraced_ns = UntracedReplay(spec, *served.gen, prefix);

  // Cold CSR build and the delta merge of each published epoch,
  // measured on the replay's own epochs.
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t t0 = NowNs();
    kgq::CsrSnapshot cold = kgq::CsrSnapshot::FromLabeledEdges(
        graph.topology(), [&](kgq::EdgeId e) { return graph.EdgeLabelString(e); });
    build_ms.push_back(Ms(NowNs() - t0));
  }
  {
    kgq::serve::Server srv(OptionsFor(spec));
    LoadGraph(graph, &srv.store());
    EpochPtr prev = srv.Publish();
    for (const BenchRequest& r : prefix) {
      if (r.kind == Kind::kWrite) {
        Request req;
        if (!kgq::serve::ParseRequestLine(r.line, &req).ok()) continue;
        (void)(req.op == RequestOp::kInsertEdge
                   ? srv.store().InsertEdge(req.from, req.to, req.label)
                   : srv.store().DeleteEdge(req.from, req.to, req.label));
      } else if (r.kind == Kind::kPublish) {
        EpochPtr next = srv.Publish();
        const uint64_t t0 = NowNs();
        kgq::CsrSnapshot merged = kgq::CsrSnapshot::ApplyCanonicalDelta(
            *prev->csr, next->num_nodes(), next->delta.inserted,
            next->delta.deleted);
        L.apply_delta_ms.push_back(Ms(NowNs() - t0));
        prev = next;
      }
    }
  }

  // Phase D: kernel probes and engine choice.
  const KernelTimes kernels = ProbeKernels(graph);
  const double regret = EngineRegret(spec, seed, graph);

  // Queue, dispatcher and reorder wait: served latency minus in-process
  // service time of the same request.
  std::vector<double> wait_ms;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i].kind != Kind::kQuery) continue;
    const double latency =
        Ms(served.exchange.recv_ns[i] - served.exchange.send_ns[i]);
    wait_ms.push_back(latency - L.service_ms[i]);
  }

  double root_self_ms = 0, root_total_ms = 0;
  const std::map<std::string, Tracer::Row> rows = tracer.SelfTimes();
  if (auto it = rows.find("request"); it != rows.end()) {
    root_self_ms = it->second.self_ms;
    root_total_ms = it->second.total_ms;
  }
  // Time inside a request that no layer span covers.
  const double unaccounted_ms = root_self_ms;
  const double views_total = counts["serve.view.advance"] +
                             counts["serve.view.rebuild"] +
                             counts["serve.view.fallback"];

  std::vector<Metric> m;
  auto add = [&m](const char* name, const char* unit, double v) {
    m.push_back({name, unit, v});
  };
  add("serve.protocol.parse_us", "us", Mean(L.parse_us));
  add("serve.protocol.render_us", "us", Mean(L.render_us));
  add("serve.protocol.response_bytes", "bytes", Mean(L.response_bytes));
  add("serve.server.execute_us", "us", Mean(L.execute_us));
  add("serve.stream.wait_ms", "ms", Median(wait_ms));
  add("serve.cache.hit_ratio", "ratio",
      L.queries == 0 ? 0.0
                     : static_cast<double>(L.cache_hits) /
                           static_cast<double>(L.queries));
  add("serve.cache.invalidations", "count", counts["serve.cache.invalidate"]);
  add("serve.delta_store.publish_ms", "ms", Mean(L.publish_ms));
  add("serve.delta_store.delta_edges", "count", Mean(L.delta_edges));
  add("graph.csr_snapshot.build_ms", "ms", Median(build_ms));
  add("graph.csr_snapshot.apply_delta_ms", "ms", Mean(L.apply_delta_ms));
  add("graph.lazy_graph_ms", "ms", Mean(L.lazy_graph_ms));
  add("serve.view_cache.pagerank_ms", "ms", Mean(L.view_ms["pagerank"]));
  add("serve.view_cache.components_ms", "ms", Mean(L.view_ms["components"]));
  add("serve.view_cache.reach_ms", "ms", Mean(L.view_ms["reach"]));
  add("serve.view_cache.advance_ratio", "ratio",
      views_total == 0 ? 0.0 : counts["serve.view.advance"] / views_total);
  add("analytics.pagerank.warm_iterations", "count",
      counts["pagerank.warm_iterations"]);
  add("pathalg.matrix_rpq.delta_rows", "count",
      counts["matrix_rpq.spgemm.delta_rows"]);
  add("rpq.crpq.compile_us", "us", Mean(L.compile_us["rpq.crpq.compile"]));
  add("query.match_query.compile_us", "us",
      Mean(L.compile_us["query.match_query.compile"]));
  add("rdf.bgp.compile_us", "us", Mean(L.compile_us["rdf.bgp.compile"]));
  add("plan.stats.build_us", "us", Mean(L.stats_us));
  add("plan.optimizer.plan_us", "us", Mean(L.plan_us));
  add("plan.optimizer.qerror_p50", "ratio", Percentile(L.qerror, 50));
  add("plan.optimizer.qerror_p95", "ratio", Percentile(L.qerror, 95));
  add("plan.optimizer.matrix_share", "ratio",
      L.path_atoms == 0 ? 0.0
                        : static_cast<double>(L.matrix_atoms) /
                              static_cast<double>(L.path_atoms));
  add("plan.optimizer.engine_regret", "ratio", regret);
  add("plan.exec.execute_ms", "ms", Mean(L.exec_ms));
  add("plan.exec.self_ms", "ms", Mean(L.exec_self_ms));
  add("plan.exec.rows_examined_per_row", "ratio",
      L.rows_returned == 0 ? 0.0 : L.rows_examined / L.rows_returned);
  add("pathalg.nfa.eval_ms", "ms", kernels.nfa_ms);
  add("pathalg.nfa.edges_scanned", "count", counts["nfa.edges_scanned"]);
  add("pathalg.matrix_rpq.eval_ms", "ms", kernels.matrix_ms);
  add("pathalg.matrix_rpq.word_ops", "count", counts["matrix.word_ops"]);
  add("pathalg.matrix_rpq.fixpoint_iterations", "count",
      counts["matrix.fixpoint_iterations"]);
  add("pathalg.cfpq_matrix.eval_ms", "ms", kernels.cfpq_ms);
  add("pathalg.cfpq_matrix.rounds", "count", counts["cfpq.rounds"]);
  add("pathalg.nfa.speedup_t4", "ratio", kernels.nfa_t4);
  add("pathalg.matrix_rpq.speedup_t4", "ratio", kernels.matrix_t4);
  add("pathalg.cfpq_matrix.speedup_t4", "ratio", kernels.cfpq_t4);
  add("util.thread_pool.helper_chunk_share", "ratio", kernels.helper_share);
  add("util.thread_pool.idle_ms", "ms", kernels.idle_ms);
  add("obs.overhead_frac", "ratio", kernels.obs_overhead);
  add("bench.trace_overhead_frac", "ratio",
      (static_cast<double>(traced_ns) - static_cast<double>(untraced_ns)) /
          static_cast<double>(untraced_ns));
  add("bench.unaccounted_frac", "ratio",
      root_total_ms == 0 ? 0.0 : unaccounted_ms / root_total_ms);

  std::printf("{\"detail\":%s}\n", RunDetailJson(spec, seed, graph).c_str());
  // The per-layer self-time table of the replay.
  std::printf("traced replay of %zu requests (%s, seed %llu)\n", prefix.size(),
              spec.name.c_str(), static_cast<unsigned long long>(seed));
  std::printf("%-32s %8s %12s %12s %7s\n", "span", "calls", "total_ms",
              "self_ms", "share");
  for (const auto& [name, row] : rows) {
    std::printf("%-32s %8zu %12.3f %12.3f %6.1f%%\n", name.c_str(), row.calls,
                row.total_ms, row.self_ms,
                root_total_ms == 0 ? 0.0 : 100.0 * row.self_ms / root_total_ms);
  }
  std::printf("%-32s %8s %12s %12.3f\n", "unaccounted", "", "", unaccounted_ms);
  // The served execute call is one span; the breakdown re-runs computed
  // answers step by step, so it is a split of that call, not a part of
  // the timeline. Print how well the two agree.
  std::printf("execute of computed answers %.3f ms, its step-by-step "
              "breakdown %.3f ms\n",
              L.execute_miss_ms, L.breakdown_ms);
  for (const Metric& x : m) {
    std::printf("%-40s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  const std::string trace_path =
      out_dir + "/trace-" + spec.name + "-" + std::to_string(seed) + ".jsonl";
  tracer.Write(trace_path);
  std::printf("spans written to %s; traced run took %.1f s\n",
              trace_path.c_str(), Ms(NowNs() - run_start) * 1e-3);

  const size_t attempted = served.requests.size() + prefix.size();
  size_t failed = verify.failed + L.breakdown_mismatches;
  if (!kernels.ok) ++failed;
  if (L.breakdown_mismatches > 0) {
    std::fprintf(stderr,
                 "kgqbench: %zu step-by-step answers differ from the served "
                 "ones\n",
                 L.breakdown_mismatches);
  }
  std::printf("%s\n", ResultLine(failed == 0 && verify.checked ==
                                                    served.requests.size(),
                                 attempted, failed, m)
                          .c_str());
  return 0;
}

}  // namespace perfbench
