#include "verify.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/server.h"

namespace perfbench {

using kgq::NodeId;
using kgq::serve::EpochPtr;
using kgq::serve::Request;

namespace {

/// The served "cached" flag; false if absent or unparsable (the line
/// then fails the comparison anyway).
bool CachedFlag(const std::string& response) {
  kgq::Result<kgq::serve::JsonValue> v = kgq::serve::ParseJson(response);
  if (!v.ok()) return false;
  const kgq::serve::JsonValue* c = v->Find("cached");
  return c != nullptr && c->kind == kgq::serve::JsonValue::Kind::kBool &&
         c->boolean;
}

bool IsStructuredError(const std::string& response) {
  kgq::Result<kgq::serve::JsonValue> v = kgq::serve::ParseJson(response);
  if (!v.ok()) return false;
  const kgq::serve::JsonValue* ok = v->Find("ok");
  const kgq::serve::JsonValue* code = v->Find("code");
  return ok != nullptr && ok->kind == kgq::serve::JsonValue::Kind::kBool &&
         !ok->boolean && code != nullptr &&
         code->kind == kgq::serve::JsonValue::Kind::kString &&
         !code->string.empty();
}

/// Requests answered at one epoch, checked together once the epoch ends.
struct EpochBatch {
  EpochPtr snap;
  std::vector<size_t> queries;
  std::vector<size_t> analytics;
};

class Checker {
 public:
  Checker(const std::vector<BenchRequest>& requests,
          const std::vector<std::string>& responses, size_t threads)
      : requests_(requests), responses_(responses), threads_(threads) {}

  void Fail(size_t i, const std::string& expected) {
    std::lock_guard<std::mutex> lock(mu_);
    ++result_.failed;
    if (result_.examples.size() < 5) {
      result_.examples.push_back("request " + requests_[i].line +
                                 "\n  served:   " + responses_[i].substr(0, 300) +
                                 "\n  expected: " + expected.substr(0, 300));
    }
  }

  void Check(size_t i, const std::string& expected) {
    if (responses_[i] != expected) Fail(i, expected);
  }

  /// Checks every query and analytics answer of one epoch: each distinct
  /// query text is evaluated once, tasks spread over the thread budget.
  void Flush(EpochBatch* batch) {
    if (batch->queries.empty() && batch->analytics.empty()) return;
    std::map<std::string, std::vector<size_t>> by_text;
    for (size_t i : batch->queries) {
      Request req;
      (void)kgq::serve::ParseRequestLine(requests_[i].line, &req);
      by_text[std::string(1, static_cast<char>(req.lang)) + req.text]
          .push_back(i);
    }
    std::vector<std::vector<size_t>> tasks;
    for (auto& [text, idx] : by_text) tasks.push_back(std::move(idx));
    kgq::serve::ViewCache cold;
    const size_t n_tasks = tasks.size() + batch->analytics.size();
    std::atomic<size_t> next{0};
    auto work = [&] {
      for (size_t t = next++; t < n_tasks; t = next++) {
        if (t < tasks.size()) {
          CheckQueries(tasks[t], batch->snap);
        } else {
          const size_t i = batch->analytics[t - tasks.size()];
          Request req;
          (void)kgq::serve::ParseRequestLine(requests_[i].line, &req);
          Check(i, RenderViewAnswer(req, batch->snap, &cold));
        }
      }
    };
    const size_t n_threads = std::max<size_t>(1, std::min(threads_, n_tasks));
    std::vector<std::thread> pool;
    for (size_t k = 1; k < n_threads; ++k) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
    result_.checked += batch->queries.size() + batch->analytics.size();
    batch->queries.clear();
    batch->analytics.clear();
  }

  void CheckQueries(const std::vector<size_t>& same_text,
                    const EpochPtr& snap) {
    Request req;
    (void)kgq::serve::ParseRequestLine(requests_[same_text[0]].line, &req);
    kgq::Result<kgq::serve::QueryAnswer> oracle =
        kgq::serve::EvalServeQuery(req, *snap);
    for (size_t i : same_text) {
      Request ri;
      (void)kgq::serve::ParseRequestLine(requests_[i].line, &ri);
      if (!oracle.ok()) {
        Check(i, kgq::serve::RenderError(ri, oracle.status()));
        continue;
      }
      kgq::serve::QueryAnswer expected = *oracle;
      expected.cached = CachedFlag(responses_[i]);
      Check(i, kgq::serve::RenderAnswer(ri, expected));
    }
  }

  VerifyResult& result() { return result_; }

 private:
  const std::vector<BenchRequest>& requests_;
  const std::vector<std::string>& responses_;
  size_t threads_;
  std::mutex mu_;
  VerifyResult result_;
};

}  // namespace

void LoadGraph(const kgq::LabeledGraph& graph, kgq::serve::DeltaStore* store) {
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    store->AddNode(graph.NodeLabelString(n));
  }
  for (kgq::EdgeId e = 0; e < graph.num_edges(); ++e) {
    (void)store->InsertEdge(graph.EdgeSource(e), graph.EdgeTarget(e),
                            graph.EdgeLabelString(e));
  }
}

std::string RenderViewAnswer(const Request& req, const EpochPtr& snap,
                             kgq::serve::ViewCache* views) {
  if (req.has_node && req.node >= snap->num_nodes()) {
    return kgq::serve::RenderError(
        req, kgq::Status::InvalidArgument("analytics: no such node"));
  }
  kgq::serve::AnalyticsBody body;
  body.epoch = snap->epoch;
  body.view = req.view;
  body.has_node = req.has_node;
  body.node = req.node;
  if (req.view == "components") {
    auto comp = views->Components(snap);
    body.num_components = comp->num_components;
    if (req.has_node) body.component = comp->component[req.node];
  } else if (req.view == "pagerank") {
    auto rank = views->PageRank(snap);
    if (req.has_node) body.rank = (*rank)[req.node];
    if (req.top > 0) {
      body.has_top = true;
      for (NodeId n = 0; n < rank->size(); ++n) {
        body.top.emplace_back(n, (*rank)[n]);
      }
      const size_t k = std::min<size_t>(req.top, body.top.size());
      std::partial_sort(body.top.begin(), body.top.begin() + k, body.top.end(),
                        [](const auto& a, const auto& b) {
                          return a.second != b.second ? a.second > b.second
                                                      : a.first < b.first;
                        });
      body.top.resize(k);
    }
  } else {
    auto closure = views->Reachability(snap, req.label);
    body.label = req.label;
    if (req.has_node) {
      body.reach_nodes.assign(
          closure->cols.begin() + closure->offsets[req.node],
          closure->cols.begin() + closure->offsets[req.node + 1]);
    } else {
      body.nnz = closure->nnz();
    }
  }
  return kgq::serve::RenderAnalytics(req, body);
}

VerifyResult VerifyResponses(const kgq::LabeledGraph& graph,
                             const std::vector<BenchRequest>& requests,
                             const std::vector<std::string>& responses,
                             size_t threads) {
  kgq::serve::DeltaStore mirror;
  LoadGraph(graph, &mirror);
  EpochBatch batch;
  batch.snap = mirror.Publish();

  Checker checker(requests, responses, threads);
  for (size_t i = 0; i < requests.size() && i < responses.size(); ++i) {
    const BenchRequest& r = requests[i];
    Request req;
    const kgq::Status parsed = kgq::serve::ParseRequestLine(r.line, &req);
    if (r.kind == Kind::kMalformed) {
      ++checker.result().checked;
      if (!IsStructuredError(responses[i])) {
        checker.Fail(i, "a structured {\"ok\":false,\"code\":...} error");
      }
      continue;
    }
    if (!parsed.ok()) {
      checker.Fail(i, "(the benchmark generated an unparsable request)");
      continue;
    }
    switch (r.kind) {
      case Kind::kWrite: {
        kgq::Result<bool> applied =
            req.op == kgq::serve::RequestOp::kInsertEdge
                ? mirror.InsertEdge(req.from, req.to, req.label)
                : mirror.DeleteEdge(req.from, req.to, req.label);
        ++checker.result().checked;
        checker.Check(i, applied.ok() ? kgq::serve::RenderApplied(req, *applied)
                                      : kgq::serve::RenderError(
                                            req, applied.status()));
        break;
      }
      case Kind::kPublish: {
        checker.Flush(&batch);
        batch.snap = mirror.Publish();
        ++checker.result().checked;
        checker.Check(i, kgq::serve::RenderPublish(req, batch.snap->epoch,
                                                   batch.snap->num_nodes(),
                                                   batch.snap->num_edges()));
        break;
      }
      case Kind::kQuery:
        batch.queries.push_back(i);
        break;
      case Kind::kAnalytics:
        batch.analytics.push_back(i);
        break;
      case Kind::kMalformed:
        break;
    }
  }
  checker.Flush(&batch);
  VerifyResult result = checker.result();
  if (responses.size() < requests.size()) {
    result.failed += requests.size() - responses.size();
    result.examples.push_back(std::to_string(requests.size() -
                                             responses.size()) +
                              " requests got no response");
  }
  return result;
}

}  // namespace perfbench
