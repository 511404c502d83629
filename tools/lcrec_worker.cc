// Model-worker process for the sharded serving cluster: one
// serve::Server (own cache, batch engine, degradation ladder) exposed
// over the binary RPC protocol by a net::RpcServer. lcrec_router shards
// user traffic across N of these.
//
//   lcrec_worker [--port=N] [--port-file=PATH] [--seed=N]
//                [--debug-port=N] [--debug-port-file=PATH]
//                [--dispatch-threads=N]
//
// The model is serve::ToySystem, the deterministic tiny system
// bench_serve and the probes serve too: every worker started with the
// same --seed holds bit-identical weights, so the router's answers are
// bit-identical to a direct in-process serve::Server::Recommend
// whichever shard serves them.
//
// Shutdown contract (the drain half of the router handoff): on SIGTERM
// the worker closes its listener first — the router re-resolves new
// requests to surviving shards — then finishes every queued and
// in-flight request and flushes the responses before exiting 0. Exits 1
// if the drain times out.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "net/service.h"
#include "obs/debugz.h"
#include "obs/log.h"
#include "serve/server.h"
#include "serve/toy_system.h"

namespace {

using namespace lcrec;

volatile std::sig_atomic_t g_shutdown = 0;

void OnSignal(int) { g_shutdown = 1; }

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Writes "<port>\n" atomically (tmp + rename) so a polling launcher
/// never reads a half-written file.
bool WritePortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%d\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string port_file;
  uint64_t seed = 7;
  int debug_port = -1;
  std::string debug_port_file;
  int dispatch_threads = 8;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--port", &v)) {
      port = std::atoi(v);
    } else if (FlagValue(argv[i], "--port-file", &v)) {
      port_file = v;
    } else if (FlagValue(argv[i], "--seed", &v)) {
      seed = static_cast<uint64_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--debug-port", &v)) {
      debug_port = std::atoi(v);
    } else if (FlagValue(argv[i], "--debug-port-file", &v)) {
      debug_port_file = v;
    } else if (FlagValue(argv[i], "--dispatch-threads", &v)) {
      dispatch_threads = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "usage: lcrec_worker [--port=N] [--port-file=PATH] "
                   "[--seed=N] [--debug-port=N] [--debug-port-file=PATH] "
                   "[--dispatch-threads=N]\n");
      return 2;
    }
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  serve::ToySystem system(seed);
  serve::ServerOptions sopts;
  sopts.beam_size = 4;
  sopts.slow_request_ms = 0.0;
  serve::Server server(system.model, system.trie, system.token_map,
                       system.Builder(), sopts);

  net::RpcServerOptions ropts;
  ropts.port = port;
  ropts.dispatch_threads = dispatch_threads;
  net::RpcServer rpc(ropts);
  net::RegisterRecommendService(&rpc, &server);
  std::string error;
  if (!rpc.Start(&error)) {
    std::fprintf(stderr, "lcrec_worker: rpc start failed: %s\n",
                 error.c_str());
    return 1;
  }

  if (debug_port >= 0) {
    obs::DebugServer& dbg = obs::DebugServer::Global();
    if (dbg.Start(debug_port, &error)) {
      if (!debug_port_file.empty()) WritePortFile(debug_port_file, dbg.port());
    } else {
      std::fprintf(stderr, "lcrec_worker: debugz start failed: %s\n",
                   error.c_str());
    }
  }
  obs::RegisterStatuszSection("net.rpc",
                              [&rpc] { return rpc.StatuszText(); });

  if (!port_file.empty() && !WritePortFile(port_file, rpc.port())) {
    std::fprintf(stderr, "lcrec_worker: cannot write port file %s\n",
                 port_file.c_str());
    return 1;
  }
  obs::Log(obs::LogLevel::kInfo,
           "[worker] serving on port %d (seed %llu, debugz %d)", rpc.port(),
           static_cast<unsigned long long>(seed),
           debug_port >= 0 ? obs::DebugServer::Global().port() : -1);

  while (g_shutdown == 0 && rpc.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  obs::Log(obs::LogLevel::kInfo, "[worker] draining");
  rpc.BeginDrain();
  const bool drained = rpc.WaitDrained(/*timeout_s=*/15.0);
  rpc.Stop();
  server.Stop();
  if (!drained) {
    std::fprintf(stderr, "lcrec_worker: drain timed out\n");
    return 1;
  }
  std::printf("lcrec_worker: drained clean\n");
  return 0;
}
