// kgq-serve — the versioned-snapshot serving binary.
//
// Reads one jsonl request per line from stdin (or a unix socket with
// --socket PATH, one connection at a time) and writes one jsonl
// response per request, in input order. See README "Serving layer" for
// the protocol.
//
// Usage:
//   kgq-serve [--workers N] [--queue N] [--query-threads N]
//             [--max-query-threads N] [--cache N | --no-cache]
//             [--slow-ms N] [--metrics-interval SECONDS]
//             [--socket PATH]
//
// Observability flags:
//   --slow-ms N            log queries slower than N milliseconds to
//                          stderr (one JSON line: query text, epoch,
//                          duration, top-3 operators by time)
//   --metrics-interval N   every N seconds, export one metrics JSON
//                          line (registry dump + exact latency
//                          quantiles) to stderr

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <istream>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>

#include "serve/server.h"

#if defined(__unix__) || defined(__APPLE__)
#define KGQ_SERVE_HAVE_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

void Usage(FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--workers N] [--queue N] [--query-threads N]\n"
               "          [--max-query-threads N] [--cache N | --no-cache]\n"
               "          [--slow-ms N] [--metrics-interval SECONDS]\n"
               "          [--socket PATH]\n",
               argv0);
}

/// The full per-flag listing printed by --help (to stdout, exit 0;
/// unknown flags print the brief usage to stderr and exit 2).
void Help(const char* argv0) {
  Usage(stdout, argv0);
  std::fprintf(
      stdout,
      "\n"
      "Reads one jsonl request per line from stdin (or a unix socket\n"
      "with --socket) and writes one jsonl response per request, in\n"
      "input order. See README \"Serving layer\" for the protocol.\n"
      "\n"
      "Options:\n"
      "  --workers N            query worker threads (default 4, at\n"
      "                         most 256; responses stay in input\n"
      "                         order at any N)\n"
      "  --queue N              in-flight query admission queue before\n"
      "                         the dispatcher blocks (default 128)\n"
      "  --query-threads N      intra-query parallelism per request\n"
      "                         (default 1; requests may override with\n"
      "                         \"threads\")\n"
      "  --max-query-threads N  cap on per-request \"threads\" overrides\n"
      "                         (default 8)\n"
      "  --cache N              plan/result cache entries (default\n"
      "                         1024)\n"
      "  --no-cache             disable the query cache (same as\n"
      "                         --cache 0)\n"
      "  --slow-ms N            log queries slower than N milliseconds\n"
      "                         to stderr (one JSON line: query text,\n"
      "                         epoch, duration, top-3 operators)\n"
      "  --metrics-interval N   every N seconds, export one metrics\n"
      "                         JSON line (registry dump + latency\n"
      "                         quantiles) to stderr\n"
      "  --socket PATH          serve on a unix socket instead of\n"
      "                         stdin/stdout (one connection at a time)\n"
      "  --help, -h             print this listing and exit\n");
}

bool ParseSize(const char* text, size_t* out) {
  if (text == nullptr || *text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
    if (v > (1u << 20)) return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

#if KGQ_SERVE_HAVE_SOCKETS
/// Minimal std::streambuf over a connected socket fd — enough to run
/// std::getline / operator<< against one client connection.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreambuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      ssize_t n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

int ServeSocket(kgq::serve::Server& server, const std::string& path) {
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("kgq-serve: socket");
    return 1;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "kgq-serve: socket path too long\n");
    ::close(listen_fd);
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 1) < 0) {
    std::perror("kgq-serve: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "kgq-serve: listening on %s\n", path.c_str());
  // One connection at a time: the store (and its epochs) persists across
  // connections, the response stream belongs to one client.
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      std::perror("kgq-serve: accept");
      break;
    }
    FdStreambuf buf(fd);
    std::istream in(&buf);
    std::ostream out(&buf);
    server.ServeStream(in, out);
    ::close(fd);
  }
  ::close(listen_fd);
  return 1;
}
#endif  // KGQ_SERVE_HAVE_SOCKETS

}  // namespace

/// Background thread that writes one Server::MetricsJson() line to
/// stderr every `interval_s` seconds until Stop() — the
/// --metrics-interval exporter. stderr keeps the export out of the
/// response stream, so clients piping stdout see only protocol lines.
class MetricsExporter {
 public:
  MetricsExporter(kgq::serve::Server& server, size_t interval_s)
      : server_(server), interval_s_(interval_s) {
    if (interval_s_ > 0) {
      thread_ = std::thread([this] { Loop(); });
    }
  }

  ~MetricsExporter() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::seconds(interval_s_),
                       [this] { return stopped_; })) {
        return;
      }
      lock.unlock();
      const std::string line = server_.MetricsJson();
      std::fprintf(stderr, "%s\n", line.c_str());
      std::fflush(stderr);
      lock.lock();
    }
  }

  kgq::serve::Server& server_;
  const size_t interval_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

int main(int argc, char** argv) {
  kgq::serve::ServerOptions options;
  std::string socket_path;
  size_t slow_ms = 0;
  size_t metrics_interval_s = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (arg == "--workers") {
      ok = ParseSize(next(), &options.workers) &&
           options.workers <= kgq::serve::kMaxWorkers;
    } else if (arg == "--queue") {
      ok = ParseSize(next(), &options.queue_capacity);
    } else if (arg == "--query-threads") {
      ok = ParseSize(next(), &options.default_query_threads);
    } else if (arg == "--max-query-threads") {
      ok = ParseSize(next(), &options.max_query_threads);
    } else if (arg == "--cache") {
      ok = ParseSize(next(), &options.cache_capacity);
    } else if (arg == "--no-cache") {
      options.cache_capacity = 0;
    } else if (arg == "--slow-ms") {
      ok = ParseSize(next(), &slow_ms);
    } else if (arg == "--metrics-interval") {
      ok = ParseSize(next(), &metrics_interval_s);
    } else if (arg == "--socket") {
      const char* p = next();
      ok = p != nullptr && *p != '\0';
      if (ok) socket_path = p;
    } else if (arg == "--help" || arg == "-h") {
      Help(argv[0]);
      return 0;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "kgq-serve: bad argument: %s\n", arg.c_str());
      Usage(stderr, argv[0]);
      return 2;
    }
  }

  options.slow_query_ns = static_cast<uint64_t>(slow_ms) * 1'000'000;

  kgq::serve::Server server(options);
  MetricsExporter exporter(server, metrics_interval_s);
  if (!socket_path.empty()) {
#if KGQ_SERVE_HAVE_SOCKETS
    return ServeSocket(server, socket_path);
#else
    std::fprintf(stderr, "kgq-serve: --socket unsupported on this platform\n");
    return 2;
#endif
  }
  std::ios::sync_with_stdio(false);
  // Untie cin from cout: a tied cin flushes cout before every read, so
  // the dispatcher's getline would flush the stream while workers write
  // responses into it, and a response could reach the output twice.
  std::cin.tie(nullptr);
  server.ServeStream(std::cin, std::cout);
  exporter.Stop();
  return 0;
}
