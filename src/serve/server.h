#ifndef KGQ_SERVE_SERVER_H_
#define KGQ_SERVE_SERVER_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/quantile.h"
#include "plan/optimizer.h"
#include "serve/delta_store.h"
#include "serve/protocol.h"
#include "serve/query_cache.h"
#include "serve/view_cache.h"
#include "util/result.h"

namespace kgq {
namespace serve {

/// Upper bound on ServerOptions::workers: ServeStream starts one thread
/// per worker, so a larger request is clamped here (and kgq-serve
/// rejects it as a bad argument).
inline constexpr size_t kMaxWorkers = 256;

/// Knobs of one Server instance.
struct ServerOptions {
  /// Query worker threads in ServeStream (writes always run on the
  /// dispatcher, in input order). At least 1, at most kMaxWorkers.
  size_t workers = 4;
  /// Bounded admission queue: when this many queries are in flight the
  /// dispatcher blocks before admitting the next one (backpressure
  /// towards the client). At least 1.
  size_t queue_capacity = 128;
  /// ParallelOptions thread budget for a query that does not ask for
  /// one ("threads" absent or 0).
  size_t default_query_threads = 1;
  /// Upper bound on the per-query "threads" request field.
  size_t max_query_threads = 8;
  /// Plan/result cache entries; 0 disables caching.
  size_t cache_capacity = 1024;
  /// Planner configuration shared by every query.
  PlannerOptions planner;
  /// Slow-query log threshold in nanoseconds; 0 disables the log. When
  /// armed, every query computation also captures a profile tree (so
  /// slow-log lines can name their top operators), and any query whose
  /// latency reaches the threshold emits one JSON line to `slow_log`.
  uint64_t slow_query_ns = 0;
  /// Destination of slow-query log lines; nullptr means std::cerr.
  std::ostream* slow_log = nullptr;
};

/// The kgq-serve core: a DeltaStore plus the three query front-ends
/// compiled through the unified plan IR, a plan/result cache and a
/// bounded-queue concurrent executor.
///
/// Two execution surfaces share one request pipeline:
///
///  * HandleLine() — parse, apply/execute, render, synchronously. The
///    single-threaded replay path.
///  * ServeStream() — the production loop: the calling thread reads
///    jsonl requests, applies writes immediately (writes are serialized
///    in input order by construction) and admits queries — pinned to
///    the epoch current at admission and pre-resolved against the cache
///    — into a bounded queue drained by `workers` threads. Responses
///    are emitted strictly in input order through a reorder buffer, so
///    the byte stream is identical to HandleLine-ing the same input —
///    for any worker count. That equivalence is the gate bench_e14 and
///    tests/test_serve_concurrent.cc enforce.
///
/// Epoch semantics: a query runs against the snapshot current when the
/// dispatcher admitted it; a publish between admission and execution
/// does not retroactively move it. Writes never make a query torn or
/// blocked — readers hold their EpochSnapshot by shared_ptr.
///
/// obs: counters serve.requests / serve.errors, histogram
/// serve.latency_ns (admission → response, per request), gauge
/// serve.queue.depth (admitted, not yet completed queries), plus the
/// DeltaStore and QueryCache metrics (serve.epoch, serve.writes.*,
/// serve.publish.edges, serve.cache.*).
class Server {
 public:
  /// Defined in server.cc; public so the cache-free replay oracle
  /// (EvalServeQuery) and the compile helpers can share it.
  struct PreparedQuery;

  explicit Server(ServerOptions options = {});

  DeltaStore& store() { return store_; }
  QueryCache& cache() { return cache_; }
  const ServerOptions& options() const { return options_; }

  /// Publishes the pending writes as a new epoch and invalidates the
  /// query cache iff the published *content* changed (an empty publish
  /// bumps the epoch but keeps every cached answer) — what the
  /// "publish" request does; in-process clients should use this rather
  /// than store().Publish() so the cache stays in step.
  EpochPtr Publish();

  /// Parses one request line, executes it and renders the response —
  /// all on the calling thread. Never throws; malformed input yields a
  /// structured error response and leaves the store untouched.
  std::string HandleLine(const std::string& line);

  /// Executes a query/explain request against the current epoch,
  /// through the cache. Thread-safe; used by in-process clients (the
  /// bench's load generator).
  Result<QueryAnswer> ExecuteQuery(const Request& req);

  /// Same, pinned to an explicitly acquired epoch.
  Result<QueryAnswer> ExecuteQueryAt(const Request& req,
                                     const EpochPtr& snap);

  /// Reads jsonl requests from `in` until EOF and writes one response
  /// line per request to `out`, in input order. Runs the dispatcher on
  /// the calling thread and options().workers query workers.
  void ServeStream(std::istream& in, std::ostream& out);

  /// The "stats" payload: store/cache/write tallies (deterministic
  /// under admission ordering) plus exact latency quantiles.
  StatsBody BuildStats();
  /// The "metrics" payload: exact latency quantiles plus the full
  /// (compact) obs registry export.
  MetricsBody BuildMetrics();
  /// One rendered metrics line (no correlation id) — what the
  /// `--metrics-interval` exporter of kgq-serve emits periodically.
  std::string MetricsJson();

  /// The exact-latency reservoir behind stats/metrics quantiles. Every
  /// request's latency (the same observations as the serve.latency_ns
  /// histogram) is recorded here; tests recompute quantiles offline
  /// from Samples() and byte-compare them against served responses.
  const obs::QuantileReservoir& latency_reservoir() const {
    return latency_;
  }

 private:
  struct StreamState;

  /// Parse + canonicalize a query/explain request (no graph access).
  Result<PreparedQuery> Prepare(const Request& req) const;
  /// Cache-mediated execution of a prepared query at one epoch.
  Result<QueryAnswer> RunPrepared(const PreparedQuery& prep,
                                  const EpochPtr& snap);
  /// Completes a resolved cache slot: waits on a hit, computes and
  /// fills the promise (on every path) on a miss.
  Result<QueryAnswer> FinishSlot(const PreparedQuery& prep,
                                 const EpochPtr& snap,
                                 QueryCache::Slot* slot);
  /// Handles any non-query request synchronously; returns the response.
  std::string HandleWriteOrStats(const Request& req);
  /// Serves one "analytics" request from the materialized-view cache,
  /// pinned to the current epoch.
  std::string HandleAnalytics(const Request& req);

  /// Feeds one request latency to the histogram and the reservoir.
  void RecordLatency(uint64_t latency_ns);
  /// Emits a slow-query log line when the log is armed and `latency_ns`
  /// reaches the threshold: query text, epoch, duration and the top-3
  /// operators by self-inclusive time from the answer's profile tree.
  void MaybeLogSlow(const Request& req, uint64_t latency_ns,
                    const QueryAnswer* answer);

  ServerOptions options_;
  DeltaStore store_;
  QueryCache cache_;
  ViewCache views_;
  obs::QuantileReservoir latency_;
  std::mutex slow_mu_;  // Serializes slow-log lines across workers.
};

/// Cache-free, single-threaded evaluation of one query/explain request
/// against one epoch — the replay oracle the concurrency tests and
/// bench_e14 compare the served answers to. `answer.cached` is always
/// false and `answer.epoch` is `snap.epoch`.
Result<QueryAnswer> EvalServeQuery(const Request& req,
                                   const EpochSnapshot& snap,
                                   const PlannerOptions& planner = {});

}  // namespace serve
}  // namespace kgq

#endif  // KGQ_SERVE_SERVER_H_
