// The benchmark's side of the kgq-serve jsonl protocol: spawn the
// binary with --socket, connect to it and drive that one pipelined
// connection as a closed loop (at most `window` requests in flight).
//
// The socket is used rather than stdin/stdout because in stdin mode the
// dispatcher's reads flush the tied std::cout while query workers write
// to it, which can duplicate response lines under concurrent load.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// One running kgq-serve child. The destructor closes its stdin, waits
/// for it to exit (killing it if it does not) and reaps it.
class ServerProcess {
 public:
  /// Starts `binary args... --socket socket_path` (stderr appended to
  /// `log_path`) and connects to it. Returns nullptr (and writes the
  /// reason to stderr) if the process cannot start or accept.
  static std::unique_ptr<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& socket_path, const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int fd() const { return fd_; }
  /// The child's peak resident set (VmHWM) in MiB, or -1 if unreadable.
  double PeakRssMb() const;
  /// Ends the connection, stops the server and reaps it.
  void Shutdown();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int fd_ = -1;
  std::string socket_path_;
};

/// Timings and responses of one closed-loop exchange, indexed by the
/// order requests were sent (kgq-serve answers in input order).
struct Exchange {
  std::vector<uint64_t> send_ns;
  std::vector<uint64_t> recv_ns;
  std::vector<std::string> responses;
  bool io_error = false;
};

/// Sends requests produced by `next` (called on the sending thread with
/// the request index; returns false to stop) while keeping at most
/// `window` of them unanswered, and reads every response.
Exchange RunClosedLoop(ServerProcess* server, size_t window,
                       const std::function<bool(size_t, std::string*)>& next);

/// How long after its send a request's time must be undisturbed for it
/// to be measured: longer than nearly every request's flight.
constexpr uint64_t kMeasureHorizonNs = 250'000'000;

/// One served run: the server set up `setups` times (spawn, load,
/// publish, warm views), the last instance then driven with the
/// workload's stream: `warmup_s` unmeasured, then until `seconds` of
/// undisturbed time are measured or a cap is reached.
///
/// Disturbed time is every 100 ms interval in which the hypervisor ran
/// something else on this machine's CPUs ("steal" in /proc/stat). It is
/// not the program's time, so a request is measured only if the
/// kMeasureHorizonNs after its send are undisturbed. The test looks at a
/// fixed span, not at the request's own flight, so that long requests
/// are not left out more often than short ones. Every request is still
/// answered and checked.
struct ServedRun {
  std::unique_ptr<StreamGenerator> gen;
  std::vector<double> setup_s;
  std::vector<BenchRequest> requests;
  Exchange exchange;
  /// Index of the first measured request (the rest were warm-up).
  size_t first_measured = 0;
  /// Disturbed intervals [start, end) in NowNs() time, in order.
  std::vector<std::pair<uint64_t, uint64_t>> disturbed;
  double measured_s = 0.0;  ///< Wall time after warm-up.
  double clean_s = 0.0;     ///< Undisturbed part of measured_s.
  double steal_frac = 0.0;  ///< Stolen share of CPU time while measuring.
  double peak_rss_mb = -1.0;
  /// Empty when the server started, loaded and answered every request.
  std::string error;

  /// Whether [from, to] (NowNs() time) overlaps a disturbed interval.
  bool Disturbed(uint64_t from, uint64_t to) const;
  /// Whether request `i` was sent after the warm-up and the horizon
  /// after its send is undisturbed.
  bool Clean(size_t i) const;
};
ServedRun RunServed(const WorkloadSpec& spec, uint64_t seed, double seconds,
                    double warmup_s, const std::string& server_binary,
                    const std::string& out_dir, size_t setups);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
