#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/obs.h"
#include "serve/protocol.h"

#ifndef KGQBENCH_COMPILER
#define KGQBENCH_COMPILER "unknown"
#endif
#ifndef KGQBENCH_BUILD_TYPE
#define KGQBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

Tail TailAt(const std::vector<double>& values, int percentile) {
  Tail tail;
  tail.percentile = percentile;
  const size_t n = values.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n)));
  tail.beyond = n - std::min(n, std::max<size_t>(rank, 1));
  tail.value = Percentile(values, percentile);
  return tail;
}

void JsonNumber(std::string* out, const std::string& key, double value) {
  if (!out->empty() && out->back() != '{') out->push_back(',');
  kgq::serve::AppendJsonString(out, key);
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), ":%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), ":null");
  }
  *out += buf;
}

void JsonString(std::string* out, const std::string& key,
                const std::string& value) {
  if (!out->empty() && out->back() != '{') out->push_back(',');
  kgq::serve::AppendJsonString(out, key);
  out->push_back(':');
  kgq::serve::AppendJsonString(out, value);
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out.push_back(',');
    kgq::serve::AppendJsonString(&out, metrics[i].name);
    out += ":{";
    JsonNumber(&out, "value", metrics[i].value);
    JsonString(&out, "unit", metrics[i].unit);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

std::string RunDetailJson(const WorkloadSpec& spec, uint64_t seed,
                          const kgq::LabeledGraph& graph) {
  std::string out = "{";
  JsonString(&out, "workload", spec.name);
  JsonNumber(&out, "seed", static_cast<double>(seed));
  const char* source = std::getenv("KGQBENCH_SOURCE_ID");
  JsonString(&out, "source_id", source != nullptr ? source : "unknown");
  JsonNumber(&out, "nproc", std::thread::hardware_concurrency());
  JsonString(&out, "compiler", KGQBENCH_COMPILER);
  JsonString(&out, "build_type", KGQBENCH_BUILD_TYPE);
  out += ",\"kgq_obs_compiled\":";
  out += kgq::obs::kCompiledIn ? "true" : "false";
  out += ",\"kgq_obs_enabled\":";
  out += kgq::obs::Registry::Enabled() ? "true" : "false";
  JsonNumber(&out, "workers", static_cast<double>(spec.workers));
  JsonNumber(&out, "query_threads", static_cast<double>(spec.query_threads));
  JsonNumber(&out, "window", static_cast<double>(spec.window));
  JsonNumber(&out, "cache", spec.cache ? 1 : 0);
  JsonNumber(&out, "nodes", static_cast<double>(graph.num_nodes()));
  JsonNumber(&out, "edges", static_cast<double>(graph.num_edges()));
  out.push_back('}');
  return out;
}

}  // namespace perfbench
