#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {
constexpr int kReplyTimeoutMs = 60000;
}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::unique_ptr<ServerProcess> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& socket_path, const std::string& log_path) {
  // A dead server must surface as a write error, not kill the client.
  ::signal(SIGPIPE, SIG_IGN);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "kgqbench: socket path too long: %s\n",
                 socket_path.c_str());
    return nullptr;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());

  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  argv_store.push_back("--socket");
  argv_store.push_back(socket_path);
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("kgqbench: fork");
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    const int null_in = ::open("/dev/null", O_RDONLY);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    if (null_in >= 0) ::dup2(null_in, STDIN_FILENO);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "kgqbench: cannot exec %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  std::unique_ptr<ServerProcess> p(new ServerProcess());
  p->pid_ = pid;
  p->socket_path_ = socket_path;
  // The server binds after start-up; retry the connect for up to 30 s.
  for (int attempt = 0; attempt < 30000; ++attempt) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      p->pid_ = -1;
      std::fprintf(stderr, "kgqbench: %s exited during start-up\n",
                   binary.c_str());
      return nullptr;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      p->fd_ = fd;
      return p;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::fprintf(stderr, "kgqbench: cannot connect to %s\n",
               socket_path.c_str());
  return nullptr;  // the destructor stops the child
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return -1.0;
}

void ServerProcess::Shutdown() {
  if (fd_ >= 0) {
    // EOF ends the server's stream loop once every answer is written;
    // reading to EOF on our side waits for that.
    ::shutdown(fd_, SHUT_WR);
    char sink[4096];
    pollfd pfd{fd_, POLLIN, 0};
    while (::poll(&pfd, 1, kReplyTimeoutMs) > 0 &&
           ::read(fd_, sink, sizeof(sink)) > 0) {
    }
    ::close(fd_);
    fd_ = -1;
  }
  if (pid_ >= 0) {
    // kgq-serve keeps accepting connections until it is stopped.
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
}

ServerProcess::~ServerProcess() { Shutdown(); }

Exchange RunClosedLoop(ServerProcess* server, size_t window,
                       const std::function<bool(size_t, std::string*)>& next) {
  Exchange ex;
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;
  size_t received = 0;
  bool sender_done = false;
  bool failed = false;

  std::thread sender([&] {
    std::string line;
    for (size_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return failed || sent - received < window; });
        if (failed) break;
      }
      line.clear();
      if (!next(i, &line)) break;
      line.push_back('\n');
      const uint64_t t = NowNs();
      {
        std::lock_guard<std::mutex> lock(mu);
        ex.send_ns.push_back(t);
        ++sent;
      }
      cv.notify_all();
      const char* p = line.data();
      size_t left = line.size();
      while (left > 0) {
        const ssize_t n = ::write(server->fd(), p, left);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          std::lock_guard<std::mutex> lock(mu);
          failed = true;
          break;
        }
        p += n;
        left -= static_cast<size_t>(n);
      }
      if (left > 0) break;
    }
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
    cv.notify_all();
  });

  std::string buf;
  char chunk[1 << 16];
  size_t scan_from = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (failed || (sender_done && received == sent)) break;
      if (received == sent) {
        cv.wait(lock, [&] { return failed || sender_done || sent > received; });
        continue;
      }
    }
    // A server that stops answering fails the run instead of hanging it.
    pollfd pfd{server->fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      std::fprintf(stderr, "kgqbench: no response for %d ms\n",
                   kReplyTimeoutMs);
    }
    const ssize_t n =
        ready > 0 ? ::read(server->fd(), chunk, sizeof(chunk)) : -1;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      std::lock_guard<std::mutex> lock(mu);
      failed = true;
      cv.notify_all();
      break;
    }
    const uint64_t t = NowNs();
    buf.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t got = 0;
    for (size_t nl = buf.find('\n', scan_from); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      ex.responses.emplace_back(buf, start, nl - start);
      ex.recv_ns.push_back(t);
      start = nl + 1;
      ++got;
    }
    buf.erase(0, start);
    scan_from = buf.size();
    if (got > 0) {
      std::lock_guard<std::mutex> lock(mu);
      received += got;
      cv.notify_all();
    }
  }
  sender.join();
  ex.io_error = failed || ex.responses.size() != ex.send_ns.size();
  return ex;
}

namespace {

/// Sends `lines` through a deep pipeline; true if every response is ok.
bool SendAll(ServerProcess* server, const std::vector<std::string>& lines,
             std::string* error) {
  Exchange ex = RunClosedLoop(server, 512, [&](size_t i, std::string* line) {
    if (i >= lines.size()) return false;
    *line = lines[i];
    return true;
  });
  if (ex.io_error) {
    *error = "server connection failed during set-up";
    return false;
  }
  for (size_t i = 0; i < ex.responses.size(); ++i) {
    if (ex.responses[i].find("\"ok\":true") == std::string::npos) {
      *error = "set-up request failed: " + lines[i] + " -> " + ex.responses[i];
      return false;
    }
  }
  return true;
}

/// Hard limit on a measured stream, as a multiple of the undisturbed
/// time it should collect.
constexpr double kMaxStretch = 1.5;

/// Machine-wide stolen and total CPU time in jiffies, from /proc/stat.
bool ReadSteal(uint64_t* steal, uint64_t* total) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return false;
  for (uint64_t& x : v) {
    if (!(stat >> x)) return false;
  }
  *steal = v[7];
  *total = 0;
  for (uint64_t x : v) *total += x;
  return true;
}

}  // namespace

bool ServedRun::Disturbed(uint64_t from, uint64_t to) const {
  // The first interval ending after `from` is the only one that can
  // overlap [from, to]: the intervals are disjoint and in order.
  auto it = std::upper_bound(
      disturbed.begin(), disturbed.end(), from,
      [](uint64_t t, const std::pair<uint64_t, uint64_t>& d) {
        return t < d.second;
      });
  return it != disturbed.end() && it->first <= to;
}

bool ServedRun::Clean(size_t i) const {
  return i >= first_measured &&
         !Disturbed(exchange.send_ns[i],
                    exchange.send_ns[i] + kMeasureHorizonNs);
}

ServedRun RunServed(const WorkloadSpec& spec, uint64_t seed, double seconds,
                    double warmup_s, const std::string& server_binary,
                    const std::string& out_dir, size_t setups) {
  ServedRun run;
  run.gen = std::make_unique<StreamGenerator>(spec, seed);
  const std::vector<std::string> load = run.gen->LoadLines();
  const std::vector<std::string> warm = run.gen->WarmLines();
  std::unique_ptr<ServerProcess> server;
  for (size_t k = 0; k < setups; ++k) {
    if (server != nullptr) server->Shutdown();
    const uint64_t t0 = NowNs();
    server = ServerProcess::Spawn(
        server_binary, ServerArgs(spec),
        out_dir + "/kgq-serve." + std::to_string(::getpid()) + ".sock",
        out_dir + "/kgq-serve.log");
    if (server == nullptr) {
      run.error = "cannot start " + server_binary;
      return run;
    }
    if (!SendAll(server.get(), load, &run.error) ||
        !SendAll(server.get(), warm, &run.error)) {
      return run;
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  // The sampler ends the stream once it has seen `seconds` of
  // undisturbed time after the warm-up, or at the cap.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> measure_from{0};
  uint64_t stolen = 0;
  uint64_t cpu_total = 0;
  std::thread sampler([&] {
    const uint64_t from = NowNs() + static_cast<uint64_t>(warmup_s * 1e9);
    const uint64_t want = static_cast<uint64_t>(seconds * 1e9);
    uint64_t cap = 0;
    uint64_t clean = 0;
    uint64_t prev_t = 0;  // 0 until the warm-up is over
    uint64_t prev_steal = 0;
    uint64_t prev_total = 0;
    std::unique_lock<std::mutex> lock(mu);
    while (!done) {
      const uint64_t t = NowNs();
      uint64_t st = 0;
      uint64_t tot = 0;
      if (!ReadSteal(&st, &tot)) {  // without /proc/stat nothing is stolen
        st = prev_steal;
        tot = prev_total;
      }
      if (t >= from) {
        if (prev_t == 0) {
          measure_from = t;
          cap = t + static_cast<uint64_t>(seconds * kMaxStretch * 1e9);
        } else {
          if (st > prev_steal) {
            if (!run.disturbed.empty() &&
                run.disturbed.back().second == prev_t) {
              run.disturbed.back().second = t;
            } else {
              run.disturbed.emplace_back(prev_t, t);
            }
          } else {
            clean += t - prev_t;
          }
          stolen += st - prev_steal;
          cpu_total += tot - prev_total;
          if (clean >= want || t >= cap) stop = true;
        }
        prev_t = t;
        prev_steal = st;
        prev_total = tot;
      }
      cv.wait_for(lock, std::chrono::milliseconds(100));
    }
    run.clean_s = static_cast<double>(clean) * 1e-9;
  });
  run.exchange = RunClosedLoop(
      server.get(), spec.window, [&](size_t, std::string* line) {
        if (stop) return false;
        run.requests.push_back(run.gen->Next());
        *line = run.requests.back().line;
        return true;
      });
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  sampler.join();
  const std::vector<uint64_t>& sends = run.exchange.send_ns;
  run.first_measured = static_cast<size_t>(
      std::lower_bound(sends.begin(), sends.end(), measure_from.load()) -
      sends.begin());
  if (!run.exchange.recv_ns.empty() && measure_from > 0) {
    run.measured_s =
        static_cast<double>(run.exchange.recv_ns.back() - measure_from) * 1e-9;
  }
  run.steal_frac = cpu_total > 0 ? static_cast<double>(stolen) /
                                       static_cast<double>(cpu_total)
                                 : 0.0;
  run.peak_rss_mb = server->PeakRssMb();
  server->Shutdown();
  if (run.exchange.io_error) run.error = "server connection failed";
  return run;
}

}  // namespace perfbench
