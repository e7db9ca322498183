// clarad — the Clara analysis daemon.
//
//   clarad --socket=/run/clara.sock [--jobs=N] [--max-inflight=N]
//
// Serves the clara-serve/1 JSON-lines protocol over a Unix-domain
// socket: one Request object per line in, one Response object per line
// out, multiplexed onto the shared thread pool with the
// content-addressed analysis cache shared across every client (see
// docs/api.md "Wire protocol"). `clara analyze --connect=<socket>`
// and serve::Client speak to it; SIGINT/SIGTERM shut it down cleanly.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/version.hpp"
#include "core/cache.hpp"
#include "serve/daemon.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void usage() {
  std::printf(
      "clarad — Clara analysis daemon (clara-serve/1 over a Unix socket)\n\n"
      "  clarad [--socket=<path>] [--jobs=<N>] [--max-inflight=<N>]\n"
      "         [--cache-entries=<N>] [--max-connections=<N>]\n"
      "         [--read-deadline-ms=<N>] [--drain-ms=<N>]\n\n"
      "  --socket=<path>        listening socket (default /tmp/clarad.sock);\n"
      "                         an existing file at the path is replaced\n"
      "  --jobs=<N>             pool concurrency (default: CLARA_JOBS or\n"
      "                         hardware threads; 1 = fully serial)\n"
      "  --max-inflight=<N>     admission cap; requests beyond it get a typed\n"
      "                         \"overloaded\" response (0 = unlimited,\n"
      "                         default 64)\n"
      "  --cache-entries=<N>    analysis cache capacity per stage\n"
      "  --max-connections=<N>  concurrent-connection cap; extra peers get one\n"
      "                         typed \"overloaded\" hello (0 = unlimited)\n"
      "  --read-deadline-ms=<N> close a connection that stalls mid-request\n"
      "                         line longer than N ms, with a typed response\n"
      "                         first (slow-loris defense; 0 = none,\n"
      "                         default 30000)\n"
      "  --drain-ms=<N>         on SIGTERM/SIGINT: stop accepting, answer new\n"
      "                         requests with \"draining\", wait up to N ms for\n"
      "                         live connections, then force-close (default\n"
      "                         2000)\n\n"
      "Talk to it with `clara analyze --nf lpm --connect=<path>` or any\n"
      "client that writes one clara-serve/1 request object per line.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clara;
  serve::DaemonOptions options;
  options.socket_path = "/tmp/clarad.sock";
  // A standalone daemon defaults to the slow-loris deadline on; library
  // embedders (tests, the loadgen) opt in instead.
  options.read_deadline_ms = 30'000.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--socket" && !value.empty()) {
      options.socket_path = value;
    } else if (key == "--jobs") {
      const long n = std::atol(value.c_str());
      if (n < 1) {
        std::fprintf(stderr, "--jobs must be a positive integer\n");
        return 2;
      }
      parallel::set_jobs(static_cast<std::size_t>(n));
    } else if (key == "--max-inflight") {
      const long n = std::atol(value.c_str());
      if (n < 0) {
        std::fprintf(stderr, "--max-inflight must be >= 0 (0 = unlimited)\n");
        return 2;
      }
      options.max_inflight = static_cast<std::size_t>(n);
    } else if (key == "--max-connections") {
      const long n = std::atol(value.c_str());
      if (n < 0) {
        std::fprintf(stderr, "--max-connections must be >= 0 (0 = unlimited)\n");
        return 2;
      }
      options.max_connections = static_cast<std::size_t>(n);
    } else if (key == "--read-deadline-ms") {
      const long n = std::atol(value.c_str());
      if (n < 0) {
        std::fprintf(stderr, "--read-deadline-ms must be >= 0 (0 = no deadline)\n");
        return 2;
      }
      options.read_deadline_ms = static_cast<double>(n);
    } else if (key == "--drain-ms") {
      const long n = std::atol(value.c_str());
      if (n < 0) {
        std::fprintf(stderr, "--drain-ms must be >= 0\n");
        return 2;
      }
      options.drain_deadline_ms = static_cast<double>(n);
    } else if (key == "--cache-entries") {
      const long n = std::atol(value.c_str());
      if (n < 1) {
        std::fprintf(stderr, "--cache-entries must be a positive integer\n");
        return 2;
      }
      core::CacheConfig config;
      config.max_entries = static_cast<std::size_t>(n);
      core::analysis_cache().configure(config);
    } else {
      std::fprintf(stderr, "unknown option '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  serve::Daemon daemon(options);
  if (auto status = daemon.start(); !status) {
    std::fprintf(stderr, "clarad: %s\n", status.error().message.c_str());
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);
  std::fprintf(stderr, "clarad %s listening on %s (jobs=%zu, max-inflight=%zu)\n", kVersionString,
               daemon.socket_path().c_str(), parallel::jobs(), options.max_inflight);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful drain: stop accepting, answer requests still arriving on
  // live connections with kOverloaded ("draining"), give in-flight work
  // a bounded window, then stop() force-closes whatever remains.
  daemon.begin_drain();
  std::fprintf(stderr, "clarad: draining (%zu open connection(s), deadline %.0f ms)\n",
               daemon.open_connections(), options.drain_deadline_ms);
  const auto drain_start = std::chrono::steady_clock::now();
  while (daemon.open_connections() > 0 &&
         std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   drain_start)
                 .count() < options.drain_deadline_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "clarad: shutting down (%zu connection(s) served)\n",
               daemon.connections_accepted());
  daemon.stop();
  return 0;
}
