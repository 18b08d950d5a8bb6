// E12 — matrix RPQ backend (Section 5): the same regular path queries
// evaluated under the two physical engines behind AllPairs — the
// per-source product-automaton BFS (NFA engine) and the boolean-semiring
// SpGEMM-style fixpoint (pathalg/matrix_rpq), which packs 64 sources per
// machine word and advances all of them with one word-OR sweep per
// label partition. Workloads: the synthetic DBLP bibliography graph
// (citation closure, coauthorship), a uniform Erdős–Rényi graph, and
// the gate workload — multi-source bulk reachability on a 12k-node
// Barabási–Albert graph, where the frontier is wide and the word-level
// batching pays.
//
// Gate (exit code): both engines must return bit-identical rows on every
// workload/query/thread-count, and on the BA-12k bulk-reachability query
// the matrix engine must be at least 2x faster single-threaded.
// Everything is mirrored to BENCH_e12_matrix_rpq.json, including the
// full obs registry (SpGEMM entry/word-op counters, fixpoint-iteration
// histogram, engine spans).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/options.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace kgq;

struct BenchRow {
  std::string workload;
  std::string query;
  std::string engine;
  size_t threads;
  double eval_ms;
  size_t pairs;
};

size_t CountPairs(const std::vector<Bitset>& rows) {
  size_t pairs = 0;
  for (const Bitset& row : rows) pairs += row.Count();
  return pairs;
}

}  // namespace

int main() {
  // Workload graphs. DBLP-synth matches bench_e11; the ER and BA graphs
  // use the fuzz-suite alphabet so the queries below stay dense.
  DblpGraphOptions gopts;
  gopts.num_papers = 3000;
  gopts.num_authors = 800;
  gopts.num_venues = 40;
  gopts.max_coauthors = 4;
  Rng dblp_rng(gopts.seed);
  LabeledGraph dblp = BuildDblpGraph(gopts, &dblp_rng);

  Rng rng(20260807);
  LabeledGraph er = ErdosRenyi(2000, 8000, {"p", "q"}, {"a", "b"}, &rng);
  LabeledGraph ba = BarabasiAlbert(12000, 2, {"p", "q"}, {"a", "b"}, &rng);

  struct Query {
    std::string text;
    bool gate;  // contributes to the >=2x speedup gate
  };
  struct Workload {
    const char* name;
    const LabeledGraph* graph;
    std::vector<Query> queries;
  };
  // The gate query is (a+a^-)* on BA-12k — two-way closure over the
  // a-labeled subgraph, whose giant component makes nearly every node
  // reach nearly every other: multi-source bulk reachability, where
  // packing 64 sources per word pays. The a* query on the same graph is
  // the deliberate counter-case — the generator orients every edge from
  // the new node to an older one, so the forward-only closure sees tiny
  // ancestor sets, frontiers stay near empty, and the full-sweep
  // iterations lose to per-source BFS. That crossover is what the
  // planner's MatrixRpqMode::kAuto rule selects on; the row stays here
  // (ungated) to keep it measured.
  const std::vector<Workload> workloads = {
      {"dblp", &dblp, {{"cites*", false}, {"writes/writes^-", false}}},
      {"er2k", &er, {{"a*", false}, {"(a+b)*", false}}},
      {"ba12k", &ba, {{"a*", false}, {"(a+a^-)*", true}}},
  };

  Table t("E12 — RPQ engines: per-source BFS vs boolean-matrix fixpoint",
          {"workload", "query", "engine", "threads", "t_eval(ms)", "pairs"});
  std::vector<BenchRow> rows;
  bool identical = true;
  double gate_nfa_ms = 0.0, gate_matrix_ms = 0.0;

  for (const Workload& w : workloads) {
    LabeledGraphView view(*w.graph);
    CsrSnapshot snap = CsrSnapshot::FromGraph(*w.graph);
    std::printf("%s: %zu nodes, %zu edges\n", w.name, w.graph->num_nodes(),
                w.graph->num_edges());

    for (const Query& q : w.queries) {
      const std::string& query = q.text;
      RegexPtr regex = *ParseRegex(query);
      Result<PathNfa> nfa = PathNfa::Compile(
          view, *regex, PathNfa::Construction::kGlushkov, &snap);
      if (!nfa.ok()) {
        std::fprintf(stderr, "FAIL: could not compile %s\n", query.c_str());
        return 1;
      }

      std::vector<Bitset> reference;
      struct Mode {
        const char* label;
        PathEngine engine;
        size_t threads;
      };
      const Mode modes[] = {{"nfa", PathEngine::kNfa, 1},
                            {"matrix", PathEngine::kMatrix, 1},
                            {"nfa", PathEngine::kNfa, 4},
                            {"matrix", PathEngine::kMatrix, 4}};
      for (const Mode& mode : modes) {
        KGQ_SPAN("e12.query");
        PathQueryOptions opts;
        opts.engine = mode.engine;
        opts.parallel.num_threads = mode.threads;
        Timer timer;
        std::vector<Bitset> result = AllPairs(*nfa, opts);
        double eval_ms = timer.Millis();

        if (reference.empty() && mode.threads == 1 &&
            std::string(mode.label) == "nfa") {
          reference = result;
        } else if (result != reference) {
          identical = false;
          std::fprintf(stderr, "MISMATCH: %s %s %s/%zu threads\n", w.name,
                       query.c_str(), mode.label, mode.threads);
        }
        if (q.gate && mode.threads == 1) {
          if (std::string(mode.label) == "nfa") {
            gate_nfa_ms += eval_ms;
          } else {
            gate_matrix_ms += eval_ms;
          }
        }

        t.AddRow({w.name, query, mode.label, std::to_string(mode.threads),
                  std::to_string(eval_ms), std::to_string(CountPairs(result))});
        rows.push_back({w.name, query, mode.label, mode.threads, eval_ms,
                        CountPairs(result)});
      }
    }
  }

  t.Print(std::cout);
  double speedup = gate_matrix_ms > 0.0 ? gate_nfa_ms / gate_matrix_ms : 0.0;
  std::printf("\nba12k bulk reachability, single-threaded: nfa %.2f ms, "
              "matrix %.2f ms (speedup %.2fx)\n",
              gate_nfa_ms, gate_matrix_ms, speedup);

  {
    std::ofstream out("BENCH_e12_matrix_rpq.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e12_matrix_rpq");
    w.Key("runs");
    w.BeginArray();
    for (const BenchRow& r : rows) {
      w.BeginObject();
      w.Key("workload");
      w.String(r.workload);
      w.Key("query");
      w.String(r.query);
      w.Key("engine");
      w.String(r.engine);
      w.Key("threads");
      w.UInt(r.threads);
      w.Key("t_eval_ms");
      w.Double(r.eval_ms);
      w.Key("pairs");
      w.UInt(r.pairs);
      w.EndObject();
    }
    w.EndArray();
    w.Key("gate_nfa_ms");
    w.Double(gate_nfa_ms);
    w.Key("gate_matrix_ms");
    w.Double(gate_matrix_ms);
    w.Key("speedup_matrix_over_nfa");
    w.Double(speedup);
    w.Key("engines_identical_rows");
    w.Bool(identical);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  bool ok = identical && speedup >= 2.0;
  std::printf("Paper shape: RPQ evaluation as boolean matrix products "
              "batches 64 sources per word → %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
