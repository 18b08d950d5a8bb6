// Seeded workload generators for the kgq-serve benchmark.
//
// A workload is a fixed DBLP-synth graph (BuildDblpGraph), the server
// flags it runs under, and an endless request stream drawn from the seed.
// Everything is a pure function of (workload name, seed): the same pair
// yields byte-identical set-up and request lines. The server only ever
// sees these lines.
//
// Writes are edge swaps: each deletes one live edge and inserts one
// absent edge of the same label, so node and edge counts stay fixed.
// New citations always point from a paper to an earlier paper (lower
// node id), which keeps the `cites` subgraph acyclic for the whole run
// and makes late epochs cost the same as early ones.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dblp_synth.h"
#include "graph/labeled_graph.h"
#include "util/rng.h"

namespace perfbench {

/// Request categories, each with its own latency series.
enum class Kind { kQuery, kWrite, kPublish, kAnalytics, kMalformed };

struct BenchRequest {
  Kind kind = Kind::kQuery;
  std::string line;  ///< One jsonl request, no trailing newline.
};

/// Shape and mix of one workload.
struct WorkloadSpec {
  std::string name;
  kgq::DblpGraphOptions graph;
  size_t window = 8;         ///< Requests in flight (closed loop).
  size_t workers = 4;        ///< kgq-serve --workers.
  bool cache = true;         ///< false: kgq-serve --no-cache.
  size_t query_threads = 1;  ///< Per-request "threads".
  /// One round of the stream, repeated: q = query, s = edge swap (a
  /// delete and an insert), a = analytics lookup, p = publish, r = read
  /// of the `cites` closure view, m = malformed line. A fixed round
  /// makes the request mix exact in every run; only anchors, keywords
  /// and swapped edges are drawn at random.
  std::string round;
  /// Appended to every `extra_every`-th round.
  std::string extra;
  size_t extra_every = 1;
  /// Query templates: anchored lookups, or whole-graph path analytics.
  bool bulk_queries = false;
  /// The views `a` cycles through: "pagerank-top", "pagerank-node",
  /// "components" or "reach".
  std::vector<std::string> views;
  /// Tail percentiles (query, publish, analytics): the highest of p99,
  /// p95 and p90 that leaves at least ten samples above it at the
  /// workload's request count in a 12 s run on a 4-core box. Fixed per
  /// workload so a run-to-run change in the count cannot switch them.
  int tail_pct[3] = {90, 90, 90};
};

/// The workloads the benchmark defines, by name; nullptr if unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The kgq-serve command-line flags of a workload.
std::vector<std::string> ServerArgs(const WorkloadSpec& spec);

/// Deterministic generator of one workload's traffic.
class StreamGenerator {
 public:
  StreamGenerator(const WorkloadSpec& spec, uint64_t seed);
  ~StreamGenerator();
  StreamGenerator(const StreamGenerator&) = delete;
  StreamGenerator& operator=(const StreamGenerator&) = delete;

  /// The initial graph (also what an in-process mirror loads).
  const kgq::LabeledGraph& graph() const { return graph_; }

  /// Lines that load the graph and publish it (epoch 1).
  std::vector<std::string> LoadLines() const;
  /// Lines that warm every view and the lazy graph of epoch 1.
  std::vector<std::string> WarmLines() const;

  /// The next request of the measured stream.
  BenchRequest Next();

 private:
  struct EdgePool;
  void MakeRound();
  BenchRequest MakeQuery();
  void MakeSwap();
  BenchRequest MakeAnalytics(const std::string& view);
  BenchRequest MakeMalformed();
  std::string Header(const char* op);

  const WorkloadSpec& spec_;
  kgq::Rng rng_;
  kgq::LabeledGraph graph_;
  std::vector<kgq::NodeId> papers_, authors_, keywords_;
  std::vector<std::string> keyword_labels_;
  std::vector<size_t> anchor_keywords_;  ///< keyword cycle of lookups
  std::vector<double> paper_zipf_cdf_, author_zipf_cdf_;
  std::vector<kgq::NodeId> paper_rank_, author_rank_;
  std::unique_ptr<EdgePool> cites_, writes_, about_;
  uint64_t next_id_ = 1;
  size_t rounds_ = 0;
  size_t queries_ = 0;
  size_t keyword_queries_ = 0;
  size_t analytics_ = 0;
  std::deque<BenchRequest> pending_;  ///< Made, not yet handed out.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
