// kdash_worker — one failure domain of the distributed serving tier.
//
// A worker serves a subset of a sharded index (or a whole single-file
// index) over the same JSON-lines TCP protocol as kdash_server, and is
// what serving::Router fans out to. Killing a worker kills exactly the
// shards it owns; the router's failure policy decides what that means for
// queries (failover to a replica, retry, or exact degraded answers from
// the surviving workers).
//
//   kdash_worker <sharded-index-dir/> --shard=2 --port=7611
//   kdash_worker <sharded-index-dir/> --shards=0,1 --port=7611
//   kdash_worker <sharded-index-dir/> --port=7611            # all shards
//   kdash_worker <index.kdash> --port=7611                   # one engine
//
// Flags: --port=N (required; 0 picks an ephemeral port — the bound port is
// printed on the "listening" stderr line either way), --shard=K /
// --shards=a,b,... to own a subset of the directory's shards, plus the
// kdash_server scheduler knobs (--k, --batch, --deadline-ms, --window,
// --max-queue, --cache-entries, --stats-period).
//
// Protocol notes beyond kdash_server:
//   - pong records advertise the worker's footprint ({"shards":N,
//     "nodes":M}), which the router uses to weigh this worker's failure in
//     shard units and sanity-check the topology;
//   - queries may carry hex=1 (results gain "score_hex" hexfloats, so the
//     router's merge is bit-identical to in-process serving) and
//     deadline_us=N (remaining budget — an expired query fails here with
//     DEADLINE_EXCEEDED instead of burning worker CPU on a dead answer).
//
// A worker owning several shards answers with the exact TopKHeap merge
// across them — the same merge ShardedEngine performs — so any partition
// of shards onto workers yields bit-identical global answers.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"
#include "core/engine.h"
#include "json_lines.h"
#include "net_util.h"
#include "serving/batch_scheduler.h"
#include "serving/sharded_engine.h"

namespace kdash {
namespace {

struct WorkerConfig {
  tools::StreamConfig stream;
  int port = -1;  // required; 0 = ephemeral
  std::vector<int> shards;  // empty = all shards in the directory
  std::chrono::seconds stats_period{0};
  serving::BatchSchedulerOptions scheduler;

  WorkerConfig() { scheduler.cache_entries = 1024; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: kdash_worker <index.kdash|sharded-dir> --port=N\n"
               "                    [--shard=K | --shards=a,b,...] [--k=5]\n"
               "                    [--batch=64] [--deadline-ms=0]\n"
               "                    [--window=256] [--max-queue=4096]\n"
               "                    [--cache-entries=1024]\n"
               "                    [--stats-period=0]\n");
  return 2;
}

using tools::NumericFlag;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool ParseShardList(const std::string& text, std::vector<int>* shards) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    char* end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (token.empty() || end == token.c_str() || *end != '\0' || parsed < 0) {
      return false;
    }
    shards->push_back(static_cast<int>(parsed));
    start = comma + 1;
  }
  return !shards->empty();
}

// The owned shard engines behind one Backend: each query searches every
// owned shard (each shard answer is the exact top-k over its own nodes)
// and the partials merge under the library-wide total order — exactly
// ShardedEngine's merge, restricted to this worker's shards.
class OwnedShards {
 public:
  explicit OwnedShards(std::vector<Engine> engines)
      : engines_(std::move(engines)) {}

  Result<std::vector<SearchResult>> SearchBatch(
      std::span<const Query> queries) const {
    if (engines_.size() == 1) return engines_.front().SearchBatch(queries);
    std::vector<std::vector<SearchResult>> per_engine;
    per_engine.reserve(engines_.size());
    for (const Engine& engine : engines_) {
      KDASH_ASSIGN_OR_RETURN(auto partials, engine.SearchBatch(queries));
      per_engine.push_back(std::move(partials));
    }
    std::vector<SearchResult> results(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      TopKHeap heap(queries[q].k);
      core::SearchStats merged;
      for (const auto& partials : per_engine) {
        for (const ScoredNode& entry : partials[q].top) {
          heap.Push(entry.node, entry.score);
        }
        merged.nodes_visited += partials[q].stats.nodes_visited;
        merged.proximity_computations +=
            partials[q].stats.proximity_computations;
        merged.terminated_early |= partials[q].stats.terminated_early;
        merged.tree_size += partials[q].stats.tree_size;
      }
      results[q].top = heap.Sorted();
      results[q].stats = merged;
    }
    return results;
  }

  int count() const { return static_cast<int>(engines_.size()); }

  long long total_nodes() const {
    long long nodes = 0;
    for (const Engine& engine : engines_) nodes += engine.num_nodes();
    return nodes;
  }

 private:
  std::vector<Engine> engines_;
};

std::atomic<tools::LineServer*> g_server{nullptr};

void StopListening(int) {
  tools::LineServer* server = g_server.load();
  if (server != nullptr) server->Stop();
}

int Main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return Usage();
  // A router that vanishes mid-response must not kill the worker: writes
  // to a closed peer report EPIPE instead of raising SIGPIPE.
  tools::IgnoreSigpipe();

  const std::string index_path = argv[1];
  WorkerConfig config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    std::string text;
    if (NumericFlag(arg, "--port", &value) && value >= 0 && value < 65536) {
      config.port = static_cast<int>(value);
    } else if (NumericFlag(arg, "--shard", &value) && value >= 0) {
      config.shards.push_back(static_cast<int>(value));
    } else if (tools::FlagValue(arg, "--shards", &text)) {
      if (!ParseShardList(text, &config.shards)) return Usage();
    } else if (NumericFlag(arg, "--k", &value) && value > 0) {
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
    } else if (NumericFlag(arg, "--stats-period", &value) && value >= 0) {
      config.stats_period = std::chrono::seconds(value);
    } else {
      return Usage();
    }
  }
  if (config.port < 0) return Usage();

  // Load the owned shards. A sharded directory with an explicit shard list
  // opens only those shard files — the per-process memory win that makes
  // the distributed tier worth running.
  std::optional<OwnedShards> owned;
  if (std::filesystem::is_directory(index_path)) {
    if (config.shards.empty()) {
      // Own every shard: enumerate shard-NNNN.kdash files.
      for (int s = 0;; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "shard-%04d.kdash", s);
        if (!std::filesystem::exists(index_path + "/" + name)) break;
        config.shards.push_back(s);
      }
      if (config.shards.empty()) {
        return Fail(Status::NotFound("no shard files in " + index_path));
      }
    }
    std::vector<Engine> engines;
    engines.reserve(config.shards.size());
    for (const int s : config.shards) {
      char name[32];
      std::snprintf(name, sizeof(name), "shard-%04d.kdash", s);
      auto opened = Engine::Open(index_path + "/" + name);
      if (!opened.ok()) return Fail(opened.status());
      engines.push_back(std::move(*opened));
    }
    owned.emplace(std::move(engines));
    std::fprintf(stderr, "kdash_worker owns %d shard(s) of %s\n",
                 owned->count(), index_path.c_str());
  } else {
    if (!config.shards.empty()) {
      return Fail(Status::InvalidArgument(
          "--shard/--shards applies to sharded index directories only"));
    }
    auto opened = Engine::Open(index_path);
    if (!opened.ok()) return Fail(opened.status());
    std::vector<Engine> engines;
    engines.push_back(std::move(*opened));
    owned.emplace(std::move(engines));
    std::fprintf(stderr, "kdash_worker opened index: %lld nodes\n",
                 owned->total_nodes());
  }
  config.stream.pong_shards = owned->count();
  config.stream.pong_nodes = owned->total_nodes();

  serving::BatchScheduler::Backend backend =
      [&shards = *owned](std::span<const Query> queries) {
        return shards.SearchBatch(queries);
      };
  serving::BatchScheduler scheduler(std::move(backend), config.scheduler);

  int exit_code = 0;
  {
    const tools::StatsDumper stats_dumper(config.stats_period);
    tools::LineServer server(scheduler, config.stream);
    const Status listening = server.Listen(config.port);
    if (!listening.ok()) {
      exit_code = Fail(listening);
    } else {
      g_server.store(&server);
      std::signal(SIGINT, StopListening);
      std::signal(SIGTERM, StopListening);
      std::fprintf(stderr, "kdash_worker listening on 127.0.0.1:%d\n",
                   server.port());
      server.Serve();
      g_server.store(nullptr);
    }
  }

  scheduler.Shutdown();
  std::fprintf(stderr, "scheduler stats: %s\n",
               scheduler.stats().ToJson().c_str());
  return exit_code;
}

}  // namespace
}  // namespace kdash

int main(int argc, char** argv) { return kdash::Main(argc, argv); }
