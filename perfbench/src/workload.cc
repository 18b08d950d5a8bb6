#include "workload.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "serve/protocol.h"

namespace perfbench {

using kgq::NodeId;

namespace {

/// Every workload's graph is one fixed DBLP-synth instance, the way
/// RPQ-bench fixes its dataset and draws its queries: the seed draws the
/// request stream (anchors, swapped edges, view targets), not the graph,
/// so runs with different seeds measure the same data.
constexpr uint64_t kGraphSeed = 1;

// Read-mostly interactive traffic: anchored BGP/MATCH/CRPQ lookups with
// Zipf anchors and light writes. Exercises serve, the front-ends, plan
// and bound-source NFA steps.
WorkloadSpec ServeMix() {
  WorkloadSpec s;
  s.name = "serve-mix";
  s.graph.num_papers = 9000;
  s.graph.num_authors = 2400;
  s.graph.num_venues = 60;
  s.window = 8;
  s.workers = 4;
  s.query_threads = 1;
  // 56 requests: 48 queries, 4 writes (7%), 2 analytics lookups and a
  // publish every 2 writes, so a run has a tail's worth of publishes and
  // lookups. 48 queries cycle the 12 query shapes exactly, so every
  // publish follows the same shapes. No `cites` closure reads: rebuilding
  // it at this size takes ~0.8 s.
  const std::string q12(12, 'q');
  s.round = q12 + "sa" + q12 + "p" + q12 + "sa" + q12 + "p";
  s.extra = "m";  // ~0.3% malformed lines
  s.extra_every = 6;
  s.views = {"pagerank-top", "components", "pagerank-node"};
  s.tail_pct[0] = 99;
  return s;
}

// Whole-graph path analytics: unbound closures, a same-generation
// grammar and co-author joins at 4 threads per query, one in flight.
// Exercises pathalg, plan execution and the thread pool.
WorkloadSpec PathBulk() {
  WorkloadSpec s;
  s.name = "path-bulk";
  s.graph.num_papers = 3000;
  s.graph.num_authors = 800;
  s.graph.num_venues = 40;
  s.window = 1;
  s.workers = 1;
  s.cache = false;
  s.query_threads = 4;
  s.bulk_queries = true;
  // Per query: one topic swap, a publish and one view lookup, so every
  // request kind has a tail's worth of samples. The lookups read
  // pagerank at every epoch, so each one advances the view by one
  // publish; a view skipped for an epoch is rebuilt instead, which mixes
  // two cost levels into the tail. No `cites` closure reads: read every
  // few epochs it is rebuilt (~170 ms), not carried forward.
  s.round = "qspa";
  s.views = {"pagerank-top", "pagerank-node"};
  return s;
}

// Write-heavy traffic: edge swaps with a publish every 50 writes, each
// followed by anchored queries on a cold cache and view lookups.
// Exercises publication, view maintenance and cache invalidation.
WorkloadSpec PublishChurn() {
  WorkloadSpec s;
  s.name = "publish-churn";
  s.graph.num_papers = 3000;
  s.graph.num_authors = 800;
  s.graph.num_venues = 40;
  s.window = 8;
  s.workers = 4;
  s.query_threads = 1;
  // Queries come first after the publish, so they meet the invalidated
  // cache and the lazy graph build rather than the view maintenance.
  s.round = std::string(25, 's') + "p" + "qqqq" + "aaa";
  s.extra = "r";
  s.extra_every = 3;
  s.views = {"pagerank-top", "components", "pagerank-node"};
  s.tail_pct[0] = 95;
  s.tail_pct[1] = 90;
  s.tail_pct[2] = 95;
  return s;
}

/// Zipf(s = 1) cumulative weights over `n` ranks.
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / static_cast<double>(i + 1);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

size_t DrawCdf(const std::vector<double>& cdf, kgq::Rng* rng) {
  const double u = rng->NextDouble();
  size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec>* all = new std::vector<WorkloadSpec>{
      ServeMix(), PathBulk(), PublishChurn()};
  return *all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec) {
  std::vector<std::string> args = {"--workers", std::to_string(spec.workers),
                                   "--max-query-threads", "4"};
  if (!spec.cache) args.push_back("--no-cache");
  return args;
}

/// Live edges of one label: random access for deletes, a key set for
/// "is this insert new" checks.
struct StreamGenerator::EdgePool {
  std::string label;
  std::vector<std::pair<NodeId, NodeId>> live;
  std::unordered_set<uint64_t> keys;

  static uint64_t Key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  bool Add(NodeId a, NodeId b) {
    if (!keys.insert(Key(a, b)).second) return false;
    live.emplace_back(a, b);
    return true;
  }
  std::pair<NodeId, NodeId> RemoveRandom(kgq::Rng* rng) {
    const size_t i = rng->Below(live.size());
    std::pair<NodeId, NodeId> e = live[i];
    live[i] = live.back();
    live.pop_back();
    keys.erase(Key(e.first, e.second));
    return e;
  }
};

StreamGenerator::StreamGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {
  kgq::DblpGraphOptions gopts = spec.graph;
  gopts.seed = kGraphSeed;
  kgq::Rng graph_rng(kGraphSeed);
  graph_ = kgq::BuildDblpGraph(gopts, &graph_rng);
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    const std::string& label = graph_.NodeLabelString(n);
    if (label == "paper") {
      papers_.push_back(n);
    } else if (label == "author") {
      authors_.push_back(n);
    } else if (label != "venue") {
      keywords_.push_back(n);
      keyword_labels_.push_back(label);
    }
  }
  cites_ = std::make_unique<EdgePool>();
  writes_ = std::make_unique<EdgePool>();
  about_ = std::make_unique<EdgePool>();
  cites_->label = "cites";
  writes_->label = "writes";
  about_->label = "about";
  for (kgq::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const std::string& label = graph_.EdgeLabelString(e);
    EdgePool* pool = label == "cites"    ? cites_.get()
                     : label == "writes" ? writes_.get()
                     : label == "about"  ? about_.get()
                                         : nullptr;
    if (pool != nullptr) pool->Add(graph_.EdgeSource(e), graph_.EdgeTarget(e));
  }
  for (size_t r = 0; r < 8; ++r) {
    for (size_t k = 0; k < keyword_labels_.size(); ++k) {
      const std::string& kw = keyword_labels_[k];
      const size_t weight = kw == "property_graph"    ? 8
                            : kw == "knowledge_graph" ? 1
                                                      : 4;
      if (r < weight) anchor_keywords_.push_back(k);
    }
  }
  // Anchor popularity: Zipf over a seeded shuffle of papers / authors.
  paper_rank_ = papers_;
  author_rank_ = authors_;
  for (size_t i = paper_rank_.size(); i > 1; --i) {
    std::swap(paper_rank_[i - 1], paper_rank_[rng_.Below(i)]);
  }
  for (size_t i = author_rank_.size(); i > 1; --i) {
    std::swap(author_rank_[i - 1], author_rank_[rng_.Below(i)]);
  }
  paper_zipf_cdf_ = ZipfCdf(paper_rank_.size());
  author_zipf_cdf_ = ZipfCdf(author_rank_.size());
}

StreamGenerator::~StreamGenerator() = default;

std::vector<std::string> StreamGenerator::LoadLines() const {
  std::vector<std::string> lines;
  lines.reserve(graph_.num_nodes() + graph_.num_edges() + 1);
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    std::string line = "{\"op\":\"add_node\",\"label\":";
    kgq::serve::AppendJsonString(&line, graph_.NodeLabelString(n));
    line += '}';
    lines.push_back(std::move(line));
  }
  for (kgq::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    std::string line = "{\"op\":\"insert_edge\",\"from\":" +
                       std::to_string(graph_.EdgeSource(e)) +
                       ",\"to\":" + std::to_string(graph_.EdgeTarget(e)) +
                       ",\"label\":";
    kgq::serve::AppendJsonString(&line, graph_.EdgeLabelString(e));
    line += '}';
    lines.push_back(std::move(line));
  }
  lines.push_back("{\"op\":\"publish\"}");
  return lines;
}

std::vector<std::string> StreamGenerator::WarmLines() const {
  return {
      "{\"op\":\"analytics\",\"view\":\"components\",\"node\":0}",
      "{\"op\":\"analytics\",\"view\":\"pagerank\",\"top\":1}",
      "{\"op\":\"analytics\",\"view\":\"reach\",\"label\":\"cites\","
      "\"node\":0}",
      "{\"op\":\"query\",\"lang\":\"bgp\",\"text\":\"n0 writes ?p\"}",
  };
}

std::string StreamGenerator::Header(const char* op) {
  return std::string("{\"op\":\"") + op + "\",\"id\":" +
         std::to_string(next_id_++);
}

BenchRequest StreamGenerator::Next() {
  if (pending_.empty()) MakeRound();
  BenchRequest next = std::move(pending_.front());
  pending_.pop_front();
  return next;
}

void StreamGenerator::MakeRound() {
  ++rounds_;
  std::string round = spec_.round;
  if (rounds_ % spec_.extra_every == 0) round += spec_.extra;
  for (char c : round) {
    switch (c) {
      case 'q':
        pending_.push_back(MakeQuery());
        break;
      case 's':
        MakeSwap();
        break;
      case 'a':
        pending_.push_back(
            MakeAnalytics(spec_.views[analytics_++ % spec_.views.size()]));
        break;
      case 'r':
        pending_.push_back(MakeAnalytics("reach"));
        break;
      case 'p':
        pending_.push_back({Kind::kPublish, Header("publish") + "}"});
        break;
      default:
        pending_.push_back(MakeMalformed());
        break;
    }
  }
}

void StreamGenerator::MakeSwap() {
  // Bulk workloads only churn topics (`about`), so the citation and
  // authorship structure their path queries walk stays put.
  EdgePool* pool = about_.get();
  if (!spec_.bulk_queries) {
    const double u = rng_.NextDouble();
    pool = u < 0.6 ? cites_.get() : u < 0.85 ? writes_.get() : about_.get();
  }
  const std::pair<NodeId, NodeId> gone = pool->RemoveRandom(&rng_);
  NodeId from = 0;
  NodeId to = 0;
  for (;;) {
    if (pool == cites_.get()) {
      const size_t i = 1 + rng_.Below(papers_.size() - 1);
      from = papers_[i];
      to = papers_[rng_.Below(i)];  // earlier paper: stays acyclic
    } else if (pool == writes_.get()) {
      from = authors_[rng_.Below(authors_.size())];
      to = papers_[rng_.Below(papers_.size())];
    } else {
      from = papers_[rng_.Below(papers_.size())];
      to = keywords_[rng_.Below(keywords_.size())];
    }
    if (!(from == gone.first && to == gone.second) && pool->Add(from, to)) {
      break;
    }
  }
  auto edge_line = [&](const char* op, NodeId a, NodeId b) {
    std::string line = Header(op) + ",\"from\":" + std::to_string(a) +
                       ",\"to\":" + std::to_string(b) + ",\"label\":";
    kgq::serve::AppendJsonString(&line, pool->label);
    line += '}';
    return line;
  };
  pending_.push_back(
      {Kind::kWrite, edge_line("delete_edge", gone.first, gone.second)});
  pending_.push_back({Kind::kWrite, edge_line("insert_edge", from, to)});
}

BenchRequest StreamGenerator::MakeQuery() {
  // Keywords and LIMITs follow a fixed cycle, so the keyword-anchored
  // texts (and with them their cache hits) are the same in every run.
  // Bulk queries visit every keyword once per cycle of shapes; anchored
  // lookups favour rare keywords 8:4:4:4:1 (`knowledge_graph` tags ~20x
  // more papers than `property_graph`).
  const size_t kw_slot = keyword_queries_;
  const size_t kw_index =
      spec_.bulk_queries ? (queries_ / 6) % keyword_labels_.size()
                         : anchor_keywords_[kw_slot % anchor_keywords_.size()];
  const std::string& kw = keyword_labels_[kw_index];
  static const size_t kLimits[] = {5, 10, 25};
  const std::string limit =
      std::to_string(kLimits[(kw_slot / anchor_keywords_.size()) % 3]);

  std::string lang;
  std::string text;
  if (spec_.bulk_queries) {
    // Unbound closures, a context-free same-generation grammar and
    // co-author joins; each projects one column so the time goes to
    // evaluation, not to rendering rows.
    // Costs on a 4-core box: grammar ~45 ms, co-author joins ~60 ms,
    // closures 100-300 ms. The mix puts the median inside the co-author
    // cluster and p90 among the closures, so neither percentile sits on
    // a gap between clusters.
    switch (queries_++ % 6) {
      case 0:
        lang = "bgp";
        text = "?x (cites*/about) n" + std::to_string(keywords_[kw_index]);
        break;
      case 1:
        // One keyword only: this is the costliest shape, where p90 falls,
        // and its cost varies 2x across keywords.
        lang = "crpq";
        text = "q(a) :- (a) -[ writes / cites* / writes^- ]-> (b), (b) -[ "
               "writes / about ]-> (k: RDF)";
        break;
      case 2:
        // Same generation over `cites` takes seconds at this size, so
        // the grammar runs over venue membership instead.
        lang = "crpq";
        text = "grammar SG { SG -> in SG in^- | in in^- } "
               "q(x) :- (x) -[ SG ]-> (y), (y) -[ about ]-> (k: " + kw + ")";
        break;
      case 3:
        lang = "crpq";
        text = "q(c) :- (a) -[ writes / writes^- ]-> (b), (b) -[ writes / "
               "writes^- ]-> (c), (c) -[ writes / about ]-> (k: " + kw + ")";
        break;
      default:
        lang = "match";
        text = "MATCH (a) -[ writes / writes^- ]-> (b) -[ writes / writes^- "
               "]-> (c) -[ writes / about ]-> (k: " + kw + ") RETURN c";
        break;
    }
  } else {
    const NodeId p = paper_rank_[DrawCdf(paper_zipf_cdf_, &rng_)];
    const NodeId a = author_rank_[DrawCdf(author_zipf_cdf_, &rng_)];
    const std::string np = "n" + std::to_string(p);
    const std::string na = "n" + std::to_string(a);
    const uint64_t shape = queries_++ % 12;
    if (shape < 8) {
      lang = "bgp";
      switch (shape % 4) {
        case 0:
          text = np + " cites ?q . ?a writes ?q";
          break;
        case 1:
          text = "?a writes " + np + " . ?a writes ?q";
          break;
        case 2:
          text = np + " (cites/cites) ?r";
          break;
        default:
          text = na + " writes ?p . ?p cites ?q";
          break;
      }
    } else if (shape < 10) {
      ++keyword_queries_;
      lang = "match";
      text = shape == 8 ? "MATCH (k: " + kw +
                              ") -[ about^- ]-> (p) -[ in ]-> (v) RETURN p, "
                              "v LIMIT " + limit
                        : "MATCH (k: " + kw +
                              ") -[ about^- ]-> (p) -[ writes^- ]-> (a) "
                              "RETURN a LIMIT " + limit;
    } else {
      ++keyword_queries_;
      lang = "crpq";
      text = shape == 10 ? "q(a, p) :- (k: " + kw +
                               ") -[ about^- ]-> (p), (a) -[ writes ]-> (p) "
                               "LIMIT " + limit
                         : "q(v) :- (k: " + kw +
                               ") -[ about^- / in ]-> (v) LIMIT " + limit;
    }
  }
  std::string line = Header("query") + ",\"lang\":\"" + lang + "\",\"text\":";
  kgq::serve::AppendJsonString(&line, text);
  if (spec_.query_threads > 1) {
    line += ",\"threads\":" + std::to_string(spec_.query_threads);
  }
  line += '}';
  return {Kind::kQuery, std::move(line)};
}

BenchRequest StreamGenerator::MakeAnalytics(const std::string& view) {
  const std::string node =
      std::to_string(paper_rank_[DrawCdf(paper_zipf_cdf_, &rng_)]);
  std::string line = Header("analytics");
  if (view == "pagerank-top") {
    line += ",\"view\":\"pagerank\",\"top\":10";
  } else if (view == "pagerank-node") {
    line += ",\"view\":\"pagerank\",\"node\":" + node;
  } else if (view == "components") {
    line += ",\"view\":\"components\",\"node\":" + node;
  } else {
    line += ",\"view\":\"reach\",\"label\":\"cites\",\"node\":" + node;
  }
  line += '}';
  return {Kind::kAnalytics, std::move(line)};
}

BenchRequest StreamGenerator::MakeMalformed() {
  const std::string id = std::to_string(next_id_++);
  switch (rng_.Below(4)) {
    case 0:
      return {Kind::kMalformed, "this line is not json"};
    case 1:
      return {Kind::kMalformed, "{\"op\":\"nonsense\",\"id\":" + id + "}"};
    case 2:
      return {Kind::kMalformed,
              "{\"op\":\"query\",\"id\":" + id +
                  ",\"lang\":\"match\",\"text\":\"MATCH (x\"}"};
    default:
      return {Kind::kMalformed, "{\"op\":\"insert_edge\",\"id\":" + id +
                                    ",\"from\":1,\"to\":2}"};
  }
}

}  // namespace perfbench
