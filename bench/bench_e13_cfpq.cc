// E13 — context-free path queries on the matrix substrate: the
// same-generation query (the canonical non-regular pair relation —
// equal numbers of up and down citation steps) evaluated by the CFPQ
// engine behind PathAtom and by its oracle:
//
//   * cyk     — the naive bottom-up fixpoint over per-nonterminal bitset
//               relations (oracles/cfpq_reference.h), re-applying every
//               production over the *full* relations each round;
//   * matrix  — the semi-naive BoolCsr fixpoint
//               (pathalg/cfpq_matrix.h), where each round's products
//               touch only the delta of the previous round
//               (BoolSpGemmDelta, the incremental-closure kernel).
//
// Workloads: the synthetic DBLP bibliography graph at 12k nodes (the
// citation DAG carries the same-generation grammar), and a Dyck a^n b^n
// grammar over a uniform Erdős–Rényi graph. The DBLP workload also runs
// the best regular over-approximation of same-generation
// (cites+ (cites^-)+ — equal step counts relaxed to "some up, some
// down") through the RPQ engine, to measure how many spurious pairs
// regularity costs: CFPQ is an expressiveness step, not a rewrite.
//
// Gate (exit code): both engines bit-identical on every workload (and
// across thread counts), the matrix engine at least 2x faster than the
// CYK reference on the DBLP same-generation query single-threaded, and
// the regular over-approximation strictly larger than the exact
// same-generation relation. Everything is mirrored to
// BENCH_e13_cfpq.json, including the full obs registry
// (cfpq.fixpoint_rounds, cfpq.spgemm.entries, the SpGEMM kernel
// counters).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "datasets/dblp_synth.h"
#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "oracles/cfpq_reference.h"
#include "pathalg/cfpq_matrix.h"
#include "pathalg/pairs.h"
#include "rpq/parser.h"
#include "rpq/path_expr.h"
#include "rpq/path_nfa.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/text_scanner.h"
#include "util/timer.h"

namespace {

using namespace kgq;

struct BenchRow {
  std::string workload;
  std::string grammar;
  std::string engine;
  size_t threads;
  double eval_ms;
  size_t pairs;
};

CnfGrammarPtr MustGrammar(const std::string& text) {
  TextScanner scan(text);
  if (!scan.AcceptKeyword("GRAMMAR")) {
    std::fprintf(stderr, "FAIL: bad grammar text %s\n", text.c_str());
    std::exit(1);
  }
  Result<CfGrammar> surface = ParseGrammarBlock(&scan);
  if (!surface.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", surface.status().message().c_str());
    std::exit(1);
  }
  Result<CnfGrammarPtr> g = CnfGrammar::Normalize(*surface);
  if (!g.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", g.status().message().c_str());
    std::exit(1);
  }
  return *g;
}

BoolCsr ToCsr(const std::vector<Bitset>& rel) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (size_t a = 0; a < rel.size(); ++a) {
    rel[a].ForEach([&](size_t b) {
      entries.emplace_back(static_cast<uint32_t>(a),
                           static_cast<uint32_t>(b));
    });
  }
  return BoolCsr::FromEntries(rel.size(), rel.size(), std::move(entries));
}

}  // namespace

int main() {
  // DBLP-synth sized to exactly 12k nodes: 10000 papers + 1950 authors
  // + 45 venues + 5 keyword nodes. max_citations drops below the
  // e11/e12 default to keep the same-generation relation sparse — at
  // the default the co-citation closure saturates toward n² and both
  // engines degenerate into dense all-pairs work.
  DblpGraphOptions gopts;
  gopts.num_papers = 10000;
  gopts.num_authors = 1950;
  gopts.num_venues = 45;
  gopts.max_citations = 2;
  Rng dblp_rng(gopts.seed);
  LabeledGraph dblp = BuildDblpGraph(gopts, &dblp_rng);

  Rng rng(20260808);
  LabeledGraph er = ErdosRenyi(2000, 4000, {"p", "q"}, {"a", "b"}, &rng);

  struct Workload {
    const char* name;
    const LabeledGraph* graph;
    std::string grammar;
    bool gate;  // contributes to the >=2x speedup gate
  };
  const std::vector<Workload> workloads = {
      {"dblp12k", &dblp,
       "grammar SG { SG -> cites SG cites^- | cites cites^- }", true},
      {"er2k", &er, "grammar D { D -> a D b | a b }", false},
  };

  Table t("E13 — CFPQ engines: naive CYK fixpoint vs semi-naive matrix",
          {"workload", "grammar", "engine", "threads", "t_eval(ms)",
           "pairs"});
  std::vector<BenchRow> rows;
  bool identical = true;
  double gate_cyk_ms = 0.0, gate_matrix_ms = 0.0;
  size_t sg_pairs = 0;

  for (const Workload& w : workloads) {
    LabeledGraphView view(*w.graph);
    CsrSnapshot snap = CsrSnapshot::FromGraph(*w.graph);
    std::printf("%s: %zu nodes, %zu edges\n", w.name, w.graph->num_nodes(),
                w.graph->num_edges());
    CnfGrammarPtr grammar = MustGrammar(w.grammar);

    BoolCsr reference;
    double cyk_ms = 0.0;
    {
      KGQ_SPAN("e13.query");
      Timer timer;
      Result<std::vector<Bitset>> rel =
          CfpqReferenceRelation(view, *grammar, grammar->start());
      cyk_ms = timer.Millis();
      if (!rel.ok()) {
        std::fprintf(stderr, "FAIL: %s\n",
                     rel.status().message().c_str());
        return 1;
      }
      reference = ToCsr(*rel);
    }
    t.AddRow({w.name, grammar->name(), "cyk", "1", std::to_string(cyk_ms),
              std::to_string(reference.nnz())});
    rows.push_back(
        {w.name, w.grammar, "cyk", 1, cyk_ms, reference.nnz()});
    if (w.gate) {
      gate_cyk_ms = cyk_ms;
      sg_pairs = reference.nnz();
    }

    for (size_t threads : {size_t{1}, size_t{4}}) {
      KGQ_SPAN("e13.query");
      ParallelOptions par;
      par.num_threads = threads;
      Timer timer;
      Result<BoolCsr> got =
          CfpqSolveMatrix(snap, *grammar, grammar->start(), par);
      double eval_ms = timer.Millis();
      if (!got.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", got.status().message().c_str());
        return 1;
      }
      if (!(*got == reference)) {
        identical = false;
        std::fprintf(stderr, "MISMATCH: %s matrix/%zu threads\n", w.name,
                     threads);
      }
      if (w.gate && threads == 1) gate_matrix_ms = eval_ms;
      t.AddRow({w.name, grammar->name(), "matrix", std::to_string(threads),
                std::to_string(eval_ms), std::to_string(got->nnz())});
      rows.push_back(
          {w.name, w.grammar, "matrix", threads, eval_ms, got->nnz()});
    }
  }

  // The regular over-approximation of same-generation on the citation
  // DAG: cites+ (cites^-)+ keeps "up then down" but forgets the step
  // counts must match. Every same-generation pair is in it; the excess
  // is the price of staying regular.
  size_t overapprox_pairs = 0;
  double overapprox_ms = 0.0;
  {
    LabeledGraphView view(dblp);
    CsrSnapshot snap = CsrSnapshot::FromGraph(dblp);
    RegexPtr regex = *ParseRegex("(cites/cites*)/(cites^-/(cites^-)*)");
    Result<PathNfa> nfa = PathNfa::Compile(
        view, *regex, PathNfa::Construction::kGlushkov, &snap);
    if (!nfa.ok()) {
      std::fprintf(stderr, "FAIL: could not compile over-approximation\n");
      return 1;
    }
    PathQueryOptions opts;
    opts.engine = PathEngine::kMatrix;
    Timer timer;
    std::vector<Bitset> result = AllPairs(*nfa, opts);
    overapprox_ms = timer.Millis();
    for (const Bitset& row : result) overapprox_pairs += row.Count();
    t.AddRow({"dblp12k", "cites+ (cites^-)+ (regular)", "matrix-rpq", "1",
              std::to_string(overapprox_ms),
              std::to_string(overapprox_pairs)});
    rows.push_back({"dblp12k", "cites+ (cites^-)+ (regular)", "matrix-rpq",
                    1, overapprox_ms, overapprox_pairs});
  }

  t.Print(std::cout);
  double speedup = gate_matrix_ms > 0.0 ? gate_cyk_ms / gate_matrix_ms : 0.0;
  std::printf(
      "\ndblp12k same-generation, single-threaded: cyk %.2f ms, matrix "
      "%.2f ms (speedup %.2fx)\n",
      gate_cyk_ms, gate_matrix_ms, speedup);
  std::printf(
      "exact same-generation pairs %zu vs regular over-approximation %zu "
      "(+%zu spurious)\n",
      sg_pairs, overapprox_pairs,
      overapprox_pairs > sg_pairs ? overapprox_pairs - sg_pairs : 0);

  {
    std::ofstream out("BENCH_e13_cfpq.json");
    obs::JsonWriter w(out);
    w.BeginObject();
    w.Key("benchmark");
    w.String("e13_cfpq");
    w.Key("runs");
    w.BeginArray();
    for (const BenchRow& r : rows) {
      w.BeginObject();
      w.Key("workload");
      w.String(r.workload);
      w.Key("grammar");
      w.String(r.grammar);
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
    w.Key("gate_cyk_ms");
    w.Double(gate_cyk_ms);
    w.Key("gate_matrix_ms");
    w.Double(gate_matrix_ms);
    w.Key("speedup_matrix_over_cyk");
    w.Double(speedup);
    w.Key("engines_identical_rows");
    w.Bool(identical);
    w.Key("same_generation_pairs");
    w.UInt(sg_pairs);
    w.Key("regular_overapprox_pairs");
    w.UInt(overapprox_pairs);
    w.Key("obs");
    obs::Registry::Get().WriteJson(&w);
    w.EndObject();
  }

  bool ok = identical && speedup >= 2.0 && overapprox_pairs > sg_pairs;
  std::printf(
      "Paper shape: context-free path queries land non-regular relations "
      "on the matrix substrate → %s\n",
      ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
