// kgqbench — the repository benchmark: a client of kgq-serve.
//
//   kgqbench --workload W --seed N --seconds S --trace 0|1
//            --server PATH [--out DIR]
//   kgqbench --workload W --seed N --dump-stream COUNT
//
// --trace 0 drives the server over its jsonl protocol and prints the
// end-to-end metrics; --trace 1 additionally replays the same request
// stream in-process and prints the per-layer metrics. The last stdout
// line is always the result object; the exit code is 0 only when the
// run completed (even if answers were wrong: "correct" says that).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "client.h"
#include "report.h"
#include "traced.h"
#include "verify.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;
/// Stream time before measuring starts: caches and views settle.
constexpr double kWarmupS = 1.0;
/// Below this share of --seconds of undisturbed time (the stream is cut
/// at 1.5x), or below kMinCleanSamples undisturbed requests of a kind
/// that has latency metrics, every measured request counts, disturbed
/// or not.
constexpr double kMinCleanShare = 0.25;
constexpr size_t kMinCleanSamples = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server;
  std::string out_dir = ".bench_out";
  long dump_stream = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--server") {
      a->server = v;
    } else if (k == "--out") {
      a->out_dir = v;
    } else if (k == "--dump-stream") {
      a->dump_stream = std::atol(v.c_str());
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// Latencies of the requests of one kind that `measured` accepts.
std::vector<double> LatenciesMs(const ServedRun& run, Kind kind,
                                const std::function<bool(size_t)>& measured) {
  std::vector<double> out;
  for (size_t i = 0; i < run.exchange.recv_ns.size(); ++i) {
    if (run.requests[i].kind == kind && measured(i)) {
      out.push_back(static_cast<double>(run.exchange.recv_ns[i] -
                                        run.exchange.send_ns[i]) *
                    1e-6);
    }
  }
  return out;
}

/// Every request's kind, send time (from the first send), latency and
/// whether it ran in undisturbed measured time, one tab-separated line
/// each, for looking at a run after the fact.
void WriteLatencies(const ServedRun& run, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const Exchange& ex = run.exchange;
  for (size_t i = 0; i < ex.recv_ns.size(); ++i) {
    std::fprintf(f, "%d\t%llu\t%llu\t%d\n",
                 static_cast<int>(run.requests[i].kind),
                 static_cast<unsigned long long>(ex.send_ns[i] - ex.send_ns[0]),
                 static_cast<unsigned long long>(ex.recv_ns[i] - ex.send_ns[i]),
                 run.Clean(i) ? 1 : 0);
  }
  std::fclose(f);
}

int Served(const WorkloadSpec& spec, const Args& args) {
  ServedRun run = RunServed(spec, args.seed, args.seconds, kWarmupS,
                            args.server, args.out_dir, kSetups);
  if (run.error.empty() && run.requests.empty()) run.error = "nothing was sent";
  if (!run.error.empty()) {
    std::fprintf(stderr, "kgqbench: %s\n", run.error.c_str());
    return 1;
  }
  const uint64_t verify_start = NowNs();
  const VerifyResult verify = VerifyResponses(
      run.gen->graph(), run.requests, run.exchange.responses, 4);
  const double verify_s = static_cast<double>(NowNs() - verify_start) * 1e-9;
  std::printf("verified %zu responses in %.2f s, %zu mismatches\n",
              verify.checked, verify_s, verify.failed);
  for (const std::string& e : verify.examples) {
    std::fprintf(stderr, "kgqbench: MISMATCH %s\n", e.c_str());
  }

  const Exchange& ex = run.exchange;
  WriteLatencies(run, args.out_dir + "/latency-" + spec.name + "-" +
                          std::to_string(args.seed) + ".tsv");
  // Measure only undisturbed time, unless the run had too little of it.
  bool filtered = run.clean_s >= kMinCleanShare * args.seconds;
  for (Kind kind : {Kind::kQuery, Kind::kPublish, Kind::kAnalytics}) {
    size_t clean = 0;
    for (size_t i = 0; i < ex.responses.size(); ++i) {
      clean += run.requests[i].kind == kind && run.Clean(i);
    }
    filtered = filtered && clean >= kMinCleanSamples;
  }
  const std::function<bool(size_t)> measured = [&](size_t i) {
    return filtered ? run.Clean(i) : i >= run.first_measured;
  };
  size_t measured_count = 0;
  size_t completed = 0;  // responses that arrived in the measured time
  for (size_t i = run.first_measured; i < ex.responses.size(); ++i) {
    measured_count += measured(i);
    completed += !filtered || !run.Disturbed(ex.recv_ns[i], ex.recv_ns[i]);
  }
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", "s", Median(run.setup_s)});
  metrics.push_back(
      {"throughput_rps", "1/s",
       static_cast<double>(completed) /
           (filtered ? run.clean_s : run.measured_s)});
  std::string detail = RunDetailJson(spec, args.seed, run.gen->graph());
  detail.pop_back();  // reopen the object for the run's own numbers
  JsonNumber(&detail, "warmup_s", kWarmupS);
  JsonNumber(&detail, "wall_s", run.measured_s);
  JsonNumber(&detail, "all_completed_rps",
             static_cast<double>(ex.responses.size() - run.first_measured) /
                 run.measured_s);
  JsonNumber(&detail, "undisturbed_s", run.clean_s);
  JsonNumber(&detail, "steal_frac", run.steal_frac);
  JsonNumber(&detail, "measured_requests", static_cast<double>(measured_count));
  detail += ",\"steal_filtered\":";
  detail += filtered ? "true" : "false";
  std::printf("%-10s %8s %10s %10s %6s %8s\n", "kind", "samples", "p50_ms",
              "tail_ms", "pct", "beyond");
  const struct {
    Kind kind;
    const char* prefix;
    int tail_pct;
  } series[] = {{Kind::kQuery, "query", spec.tail_pct[0]},
                {Kind::kPublish, "publish", spec.tail_pct[1]},
                {Kind::kAnalytics, "analytics", spec.tail_pct[2]},
                {Kind::kWrite, "write", 99}};
  for (const auto& s : series) {
    const std::vector<double> ms = LatenciesMs(run, s.kind, measured);
    const Tail tail = TailAt(ms, s.tail_pct);
    const double p50 = Median(ms);
    std::printf("%-10s %8zu %10.3f %10.3f %6d %8zu\n", s.prefix, ms.size(),
                p50, tail.value, tail.percentile, tail.beyond);
    const std::string p = s.prefix;
    JsonNumber(&detail, p + "_samples", static_cast<double>(ms.size()));
    JsonNumber(&detail, p + "_tail_percentile", tail.percentile);
    JsonNumber(&detail, p + "_tail_beyond", static_cast<double>(tail.beyond));
    if (s.kind == Kind::kWrite) continue;
    metrics.push_back({p + "_p50_ms", "ms", p50});
    metrics.push_back({p + "_tail_ms", "ms", tail.value});
  }
  metrics.push_back({"peak_rss_mb", "MB", run.peak_rss_mb});
  const size_t attempted = run.requests.size();
  const size_t failed = verify.failed;
  JsonNumber(&detail, "error_frac",
             static_cast<double>(failed) / static_cast<double>(attempted));
  JsonNumber(&detail, "malformed_sent",
             static_cast<double>(std::count_if(
                 run.requests.begin(), run.requests.end(),
                 [](const BenchRequest& r) { return r.kind == Kind::kMalformed; })));
  detail.push_back('}');
  for (const Metric& m : metrics) {
    std::printf("%-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"detail\":%s}\n", detail.c_str());
  std::printf("%s\n", ResultLine(failed == 0 && verify.checked == attempted,
                                 attempted, failed, metrics)
                          .c_str());
  return 0;
}

int DumpStream(const WorkloadSpec& spec, const Args& args) {
  StreamGenerator gen(spec, args.seed);
  for (const std::string& line : gen.LoadLines()) std::printf("%s\n", line.c_str());
  for (const std::string& line : gen.WarmLines()) std::printf("%s\n", line.c_str());
  for (long i = 0; i < args.dump_stream; ++i) {
    std::printf("%s\n", gen.Next().line.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgqbench --workload W --seed N --seconds S "
                 "--trace 0|1 --server PATH [--out DIR]\n"
                 "       kgqbench --workload W --seed N --dump-stream COUNT\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "kgqbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.dump_stream >= 0) return DumpStream(*spec, args);
  if (args.server.empty()) {
    std::fprintf(stderr, "kgqbench: --server is required\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (args.trace != 0) {
    return RunTraced(*spec, args.seed, args.seconds, args.server, args.out_dir);
  }
  return Served(*spec, args);
}
