// Metric arithmetic and the result line the benchmark prints.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The tail of a latency series at a fixed percentile, with the number
/// of samples above it (the rule wants at least ten).
struct Tail {
  double value = 0.0;
  int percentile = 90;
  size_t beyond = 0;
};
Tail TailAt(const std::vector<double>& values, int percentile);

/// Appends `"key":value` to a JSON object under construction (adds the
/// separating comma when `*out` does not end in '{').
void JsonNumber(std::string* out, const std::string& key, double value);
void JsonString(std::string* out, const std::string& key,
                const std::string& value);

/// The last stdout line: {"correct","attempted","failed","metrics"}.
std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics);

/// Facts that make two results comparable: source id, nproc, compiler,
/// build type, obs mode, the workload's server settings and graph size,
/// and the seed. A JSON object with room for more members at the end.
std::string RunDetailJson(const WorkloadSpec& spec, uint64_t seed,
                          const kgq::LabeledGraph& graph);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
