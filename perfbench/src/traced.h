// The traced run: per-layer metrics from an in-process replay of the
// workload's request stream, timed around calls into each module's
// public functions.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

/// Runs the traced measurement and prints its report and result line.
/// Returns the process exit code.
int RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
              const std::string& server_binary, const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
