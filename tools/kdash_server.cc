// kdash_server — JSON-lines serving front end over the micro-batching
// scheduler. Speaks exactly the `kdash_cli batch` protocol (one request
// per line, one JSON record per line, inline error records), but routes
// every request through serving::BatchScheduler: a request dispatches as
// soon as the backend is free, requests that arrive while a batch runs
// coalesce into the next SearchBatch, and cached repeats are answered
// without queueing.
//
//   kdash_server <index.kdash | sharded-index-dir/> [--k=5] [--batch=64]
//                [--deadline-ms=0] [--window=256]
//                [--max-queue=4096] [--degrade=fail|retry|degrade]
//                [--cache-entries=1024] [--shards=a,b,...]
//                [--port=7607] [--stats-period=0]
//   kdash_server --workers=host:port[+replica...][,slot2...] [common flags]
//                [--no-hedge] [--hedge-delay-us=0] [--probe-period-ms=250]
//
// The index argument is a single-index file, or a directory written by
// serving::ShardedEngine::Save (detected automatically; queries then fan
// out across the shards and merge exactly). --shards=a,b,... loads only
// those shards of the directory: the server then answers with the exact
// top-k over the nodes they own, and is one worker of a distributed
// topology — killing it kills exactly those shards. Every pong of an
// index-serving process advertises its footprint ({"shards":N,"nodes":M},
// the shards and node ids it owns), which a router uses to weigh this
// process's failure in shard units.
//
// Router mode (--workers= in place of an index path) serves no index
// itself: every query fans out over TCP to the listed worker processes
// (kdash_server <dir> --shards=... --port=N) — comma-separated slots,
// '+'-separated failover replicas
// within a slot — and the per-worker exact top-k answers merge into the
// exact global top-k, bit-identical to the in-process sharded engine over
// the same shards. --degrade selects the same failure policy across the
// process boundary (a dead worker under --degrade=degrade yields partial
// answers tagged "shards_failed"); hedging re-issues slow requests to a
// replica (--no-hedge disables, --hedge-delay-us pins the delay, 0 derives
// it from the live p99); --probe-period-ms paces the background health
// prober that marks crashed workers down and restarted ones back up.
//
// Without --port the server pumps stdin→stdout: requests are submitted
// asynchronously with up to --window in flight, responses print in input
// order, and EOF drains the scheduler cleanly. With --port it accepts TCP
// connections (one thread per connection, same line protocol per
// connection) — requests from *different* clients batch together.
//
//   --deadline-ms=N  per-request deadline; expired requests come back as
//                    {"code":"DEADLINE_EXCEEDED",...} records (0 = none).
//                    The remaining budget also propagates to workers in
//                    router mode, so a worker never computes an answer the
//                    front end has already given up on
//   --max-queue=N    admission control: shed requests past N pending with
//                    {"code":"RESOURCE_EXHAUSTED",...} (0 = unbounded)
//   --degrade=MODE   shard/worker failure policy: fail (default), retry,
//                    or degrade (serve partial top-k from live shards,
//                    tagged with "shards_failed")
//
//   --cache-entries=N  cross-batch result cache capacity (distinct query
//                    identities); repeats of a cached query are answered
//                    without touching the backend (0 = caching off)
//   --port=N         serve TCP on port N (0 picks an ephemeral port; the
//                    bound port is on the "listening" stderr line)
//
//   --stats-period=N per-process metric snapshot (obs::MetricRegistry) to
//                    stderr every N seconds (0 = off)
//
// Every error record carries the canonical status-code name in "code", and
// the literal request line {"ping":1} answers {"id":N,"pong":1} in order —
// a health probe that works even while queries are being shed. The literal
// line {"stats":1} answers {"id":N,"stats":{...}} with the live metric
// registry snapshot (scheduler, per-shard, router, IO, and fault-site
// metrics in one deterministic JSON object) — like pings it is answered in
// order and never queued or shed. Every record carries "t_us", the
// server-side end-to-end latency of its request.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "json_lines.h"
#include "net_util.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"

namespace kdash {
namespace {

struct ServerConfig {
  tools::StreamConfig stream;
  int port = -1;                         // -1 = stdin/stdout mode
  std::chrono::seconds stats_period{0};  // 0 = no periodic stats dump
  std::vector<int> shards;               // sharded dir only; empty = all
  serving::BatchSchedulerOptions scheduler;
  serving::ShardFailurePolicy failure_policy;  // sharded/router backends

  // Router mode (--workers= instead of an index path).
  std::string workers;
  serving::RouterOptions router;

  ServerConfig() { scheduler.cache_entries = 1024; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: kdash_server <index.kdash|sharded-dir> [--k=5]\n"
               "                    [--batch=64] [--deadline-ms=0]\n"
               "                    [--window=256] [--max-queue=4096]\n"
               "                    [--degrade=fail|retry|degrade]\n"
               "                    [--cache-entries=1024] [--shards=a,b,...]\n"
               "                    [--port=7607] [--stats-period=0]\n"
               "       kdash_server --workers=h:p[+h:p...][,h:p...]\n"
               "                    [--no-hedge] [--hedge-delay-us=0]\n"
               "                    [--probe-period-ms=250] [common flags]\n");
  return 2;
}

using tools::NumericFlag;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// "a,b,..." of non-negative shard ids; false on anything else.
bool ParseShardList(const std::string& text, std::vector<int>* shards) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    char* end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (token.empty() || *end != '\0' || parsed < 0 ||
        parsed > std::numeric_limits<int>::max()) {
      return false;
    }
    shards->push_back(static_cast<int>(parsed));
    start = comma + 1;
  }
  return true;
}

// ---- TCP mode --------------------------------------------------------------

// The signal handler needs a stable target; LineServer::Stop is
// async-signal-safe (atomic exchange + shutdown + close).
std::atomic<tools::LineServer*> g_server{nullptr};

void StopListening(int) {
  tools::LineServer* server = g_server.load();
  if (server != nullptr) server->Stop();
}

int ServeTcp(serving::BatchScheduler& scheduler, const ServerConfig& config) {
  tools::LineServer server(scheduler, config.stream);
  const Status listening = server.Listen(config.port);
  if (!listening.ok()) return Fail(listening);
  g_server.store(&server);
  std::signal(SIGINT, StopListening);
  std::signal(SIGTERM, StopListening);
  std::fprintf(stderr, "kdash_server listening on 127.0.0.1:%d\n",
               server.port());
  server.Serve();
  g_server.store(nullptr);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // A dead client (or dead worker, in router mode) must never kill the
  // server: writes to a closed peer report EPIPE instead of raising
  // SIGPIPE.
  tools::IgnoreSigpipe();

  ServerConfig config;
  std::string index_path;
  int first_flag = 2;
  if (tools::FlagValue(argv[1], "--workers", &config.workers)) {
    first_flag = 2;  // router mode has no index argument
  } else if (argv[1][0] == '-') {
    return Usage();
  } else {
    index_path = argv[1];
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (NumericFlag(arg, "--k", &value) && value > 0) {
      config.stream.default_k = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--batch", &value) && value > 0) {
      config.scheduler.max_batch_size = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--deadline-ms", &value) && value >= 0) {
      config.stream.deadline = std::chrono::milliseconds(value);
    } else if (NumericFlag(arg, "--window", &value) && value > 0) {
      config.stream.window = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--max-queue", &value) && value >= 0) {
      config.scheduler.max_queue_depth = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--cache-entries", &value) && value >= 0) {
      config.scheduler.cache_entries = static_cast<std::size_t>(value);
    } else if (std::string list; tools::FlagValue(arg, "--shards", &list)) {
      if (!ParseShardList(list, &config.shards)) return Usage();
    } else if (arg == "--no-hedge") {
      config.router.hedging = false;
    } else if (NumericFlag(arg, "--hedge-delay-us", &value) && value >= 0) {
      config.router.hedge_delay = std::chrono::microseconds(value);
    } else if (NumericFlag(arg, "--probe-period-ms", &value) && value >= 0) {
      config.router.probe_period = std::chrono::milliseconds(value);
    } else if (std::string mode; tools::FlagValue(arg, "--degrade", &mode)) {
      if (mode == "fail") {
        config.failure_policy.mode = serving::ShardFailureMode::kFailFast;
      } else if (mode == "retry") {
        config.failure_policy.mode = serving::ShardFailureMode::kRetry;
      } else if (mode == "degrade") {
        config.failure_policy.mode = serving::ShardFailureMode::kDegrade;
      } else {
        return Usage();
      }
    } else if (NumericFlag(arg, "--port", &value) && value >= 0 &&
               value < 65536) {
      config.port = static_cast<int>(value);
    } else if (NumericFlag(arg, "--stats-period", &value) && value >= 0) {
      config.stats_period = std::chrono::seconds(value);
    } else {
      return Usage();
    }
  }

  // The backend: a router over worker processes, a sharded directory, or a
  // single index file — all behind one Backend signature.
  std::unique_ptr<Engine> engine;
  std::unique_ptr<serving::ShardedEngine> sharded;
  std::unique_ptr<serving::Router> router;
  serving::BatchScheduler::Backend backend;
  if (!config.workers.empty()) {
    config.router.failure_policy = config.failure_policy;
    auto connected = serving::Router::Connect(config.workers, config.router);
    if (!connected.ok()) return Fail(connected.status());
    router = std::move(*connected);
    backend = [&r = *router](std::span<const Query> queries) {
      return r.SearchBatch(queries);
    };
    std::fprintf(stderr, "routing to %d worker slot(s), %d shard(s) total\n",
                 router->num_slots(), router->shards_total());
  } else if (std::filesystem::is_directory(index_path)) {
    auto opened = serving::ShardedEngine::Open(index_path, config.shards);
    if (!opened.ok()) return Fail(opened.status());
    sharded = std::make_unique<serving::ShardedEngine>(std::move(*opened));
    const Status policy = sharded->set_failure_policy(config.failure_policy);
    if (!policy.ok()) return Fail(policy);
    backend = [&s = *sharded](std::span<const Query> queries) {
      return s.SearchBatch(queries);
    };
    config.stream.pong_shards = sharded->num_shards();
    config.stream.pong_nodes = sharded->owned_nodes();
    std::fprintf(stderr, "opened sharded index: %d nodes, %d shards\n",
                 sharded->owned_nodes(), sharded->num_shards());
  } else {
    if (!config.shards.empty()) {
      return Fail(Status::InvalidArgument(
          "--shards applies to sharded index directories only"));
    }
    auto opened = Engine::Open(index_path);
    if (!opened.ok()) return Fail(opened.status());
    engine = std::make_unique<Engine>(std::move(*opened));
    backend = [&e = *engine](std::span<const Query> queries) {
      return e.SearchBatch(queries);
    };
    // The epoch hook keeps the result cache honest should this process ever
    // grow a mutation endpoint; for today's read-only server it polls a
    // counter that never moves.
    config.scheduler.backend_epoch = [&e = *engine] { return e.update_epoch(); };
    config.stream.pong_shards = 1;
    config.stream.pong_nodes = engine->num_nodes();
    std::fprintf(stderr, "opened index: %d nodes\n", engine->num_nodes());
  }

  serving::BatchScheduler scheduler(std::move(backend), config.scheduler);

  int exit_code = 0;
  {
    const tools::StatsDumper stats_dumper(config.stats_period);
    if (config.port >= 0) {
      exit_code = ServeTcp(scheduler, config);
    } else {
      // Flush per record: an interactive client must see each response as
      // it resolves, not when the stdio buffer happens to fill.
      tools::PumpStream(std::cin, [](const std::string& record) {
        return std::fwrite(record.data(), 1, record.size(), stdout) ==
                   record.size() &&
               std::fputc('\n', stdout) != EOF && std::fflush(stdout) == 0;
      }, scheduler, config.stream);
    }
    scheduler.Shutdown();
  }
  // Exit summary in the same vocabulary as the live metrics — one JSON
  // object per line, machine-diffable against a {"stats":1} snapshot.
  std::fprintf(stderr, "scheduler stats: %s\n",
               scheduler.stats().ToJson().c_str());
  if (sharded != nullptr) {
    std::fprintf(stderr, "shard failure stats: %s\n",
                 sharded->failure_stats().ToJson().c_str());
  }
  return exit_code;
}

}  // namespace
}  // namespace kdash

int main(int argc, char** argv) { return kdash::Main(argc, argv); }
