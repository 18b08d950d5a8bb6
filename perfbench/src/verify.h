// Correctness check of a served run: every response is compared with
// what an in-process oracle renders for the same request at the same
// epoch.
//
//  * Writes and publishes: a mirror DeltaStore replays the stream; the
//    served response must equal the mirror's rendering.
//  * Queries: the cache-free single-threaded replay oracle
//    kgq::serve::EvalServeQuery at the mirror's current epoch, rendered
//    with the served "cached" flag (the only field allowed to differ).
//  * Analytics: a fresh ViewCache (cold recompute) at that epoch.
//  * Malformed lines: a structured {"ok":false,"code":...} error.
#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <string>
#include <vector>

#include "graph/labeled_graph.h"
#include "serve/delta_store.h"
#include "serve/protocol.h"
#include "serve/view_cache.h"
#include "workload.h"

namespace perfbench {

struct VerifyResult {
  size_t checked = 0;
  size_t failed = 0;
  std::vector<std::string> examples;  ///< First few mismatches.
};

/// Adds `graph`'s nodes and edges to `store` (unpublished), the same
/// state the benchmark's load lines give a server.
void LoadGraph(const kgq::LabeledGraph& graph, kgq::serve::DeltaStore* store);

/// The analytics response for `req` at `snap`, rendered from `views`
/// the way the server renders its own views.
std::string RenderViewAnswer(const kgq::serve::Request& req,
                             const kgq::serve::EpochPtr& snap,
                             kgq::serve::ViewCache* views);

/// Checks `responses[i]` against `requests[i]` for a server that was
/// loaded with `graph`, published once, and then received `requests`.
/// Uses up to `threads` threads for the oracle.
VerifyResult VerifyResponses(const kgq::LabeledGraph& graph,
                             const std::vector<BenchRequest>& requests,
                             const std::vector<std::string>& responses,
                             size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
