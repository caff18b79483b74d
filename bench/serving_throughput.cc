// Serving-tier throughput: per-query synchronous Engine::Search from N
// concurrent clients versus the same clients submitting through the
// micro-batching BatchScheduler (requests coalesce into SearchBatch calls
// on the shared pool), plus the scheduler over a ShardedEngine and a
// cache-on vs cache-off scheduler pair on the same repeat-heavy stream
// (serving/result_cache.h answers cross-batch repeats without the
// backend), plus the distributed tier: a serving::Router fanning the same
// queries over per-shard loopback-TCP workers (tools/net_util.h LineServer
// — the worker kdash_server stack in-process), healthy and with one worker dead
// under a degrade policy. Emits one JSON record per (clients, mode) cell —
// the cross-PR perf artifact the serving CI job uploads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"
#include "tools/net_util.h"

namespace kdash::bench {
namespace {

struct Measurement {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double coalesced_frac = 0.0;  // scheduler modes: duplicates shared per run
};

double PercentileUs(std::vector<double>& latencies, double fraction) {
  if (latencies.empty()) return 0.0;
  const auto at = static_cast<std::size_t>(
      fraction * static_cast<double>(latencies.size() - 1));
  std::nth_element(latencies.begin(), latencies.begin() + static_cast<long>(at),
                   latencies.end());
  return latencies[at];
}

// N client threads issue their share of `queries`, each measuring
// per-request wall latency. Slices are carved before the clock starts and
// handed to each client mutably, so an async client can move its queries
// into Submit instead of copying on the hot path.
Measurement RunClients(
    int clients, const std::vector<Query>& queries,
    const std::function<void(int client, std::vector<Query>&,
                             std::vector<double>*)>& run_client) {
  std::vector<std::vector<Query>> slices(static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    slices[i % static_cast<std::size_t>(clients)].push_back(queries[i]);
  }
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(c, slices[static_cast<std::size_t>(c)],
                 &latencies[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = timer.Seconds();

  Measurement m;
  m.qps = static_cast<double>(queries.size()) / seconds;
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  m.p50_us = PercentileUs(all, 0.50);
  m.p99_us = PercentileUs(all, 0.99);
  return m;
}

Measurement RunSync(const Engine& engine, int clients,
                    const std::vector<Query>& queries) {
  return RunClients(clients, queries,
                    [&](int, std::vector<Query>& slice,
                        std::vector<double>* latencies) {
                      for (const Query& query : slice) {
                        WallTimer timer;
                        const auto result = engine.Search(query);
                        KDASH_CHECK(result.ok());
                        latencies->push_back(timer.Seconds() * 1e6);
                      }
                    });
}

// Each client keeps up to `window` requests in flight so the scheduler can
// form full batches; latency is submit→resolve per request. A deep window
// is the async API's natural regime: clients pipeline instead of blocking
// per request, so the scheduler thread runs nearly alone while client
// threads sleep on futures.
Measurement RunScheduled(serving::BatchScheduler& scheduler, int clients,
                         const std::vector<Query>& queries,
                         std::size_t window = 512) {
  return RunClients(
      clients, queries,
      [&](int, std::vector<Query>& slice, std::vector<double>* latencies) {
        struct InFlight {
          WallTimer timer;
          std::future<Result<SearchResult>> future;
        };
        std::vector<InFlight> in_flight;
        in_flight.reserve(slice.size());
        std::size_t head = 0;
        const auto resolve = [&](InFlight& request) {
          KDASH_CHECK(request.future.get().ok());
          latencies->push_back(request.timer.Seconds() * 1e6);
        };
        for (Query& query : slice) {
          in_flight.push_back({WallTimer(), scheduler.Submit(std::move(query))});
          if (in_flight.size() - head >= window) resolve(in_flight[head++]);
        }
        for (; head < in_flight.size(); ++head) resolve(in_flight[head]);
      });
}

// One in-process distributed worker: the worker kdash_server stack
// (LineServer + BatchScheduler + shard engine) on an ephemeral loopback
// port.
class BenchWorker {
 public:
  explicit BenchWorker(const Engine& shard)
      : scheduler_(
            [&shard](std::span<const Query> batch) {
              return shard.SearchBatch(batch);
            },
            SchedulerOptions()),
        server_(scheduler_, StreamConfigFor(shard)) {
    KDASH_CHECK(server_.Listen(0).ok());
    thread_ = std::thread([this] { server_.Serve(); });
  }

  ~BenchWorker() { Kill(); }

  int port() const { return server_.port(); }

  void Kill() {
    if (!thread_.joinable()) return;
    server_.Stop();
    thread_.join();
    scheduler_.Shutdown();
  }

 private:
  static serving::BatchSchedulerOptions SchedulerOptions() {
    serving::BatchSchedulerOptions options;
    options.max_batch_size = 256;
    options.max_queue_depth = 0;
    return options;
  }

  static tools::StreamConfig StreamConfigFor(const Engine& shard) {
    tools::StreamConfig config;
    config.pong_shards = 1;
    config.pong_nodes = shard.num_nodes();
    return config;
  }

  serving::BatchScheduler scheduler_;
  tools::LineServer server_;
  std::thread thread_;
};

// Synchronous per-client router calls: the fan-out inside each Search is
// already parallel over the IO pool, so clients model front-end threads.
Measurement RunRouter(const serving::Router& router, int clients,
                      const std::vector<Query>& queries) {
  return RunClients(clients, queries,
                    [&](int, std::vector<Query>& slice,
                        std::vector<double>* latencies) {
                      for (const Query& query : slice) {
                        WallTimer timer;
                        const auto result = router.Search(query);
                        KDASH_CHECK(result.ok()) << result.status();
                        latencies->push_back(timer.Seconds() * 1e6);
                      }
                    });
}

int Main() {
  const auto n = static_cast<NodeId>(8000 * BenchScale());
  PrintBenchHeader(
      "Serving throughput: sync Search vs micro-batched scheduler",
      "clients x {sync, scheduler, sharded-scheduler} QPS; pool threads: " +
          std::to_string(DefaultNumThreads()));

  Rng rng(42);
  const auto graph =
      graph::PowerLawCluster(n, 6, 0.6, /*directed=*/true, 0.4, rng);
  auto engine = Engine::Build(graph, {});
  KDASH_CHECK(engine.ok());

  serving::ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 4;
  auto sharded = serving::ShardedEngine::Build(graph, sharded_options);
  KDASH_CHECK(sharded.ok());

  // Serving traffic is head-heavy and bursty: most requests follow entity
  // popularity (modeled as out-degree-weighted sampling), and a trending
  // slice concentrates on a small rotating hot set — the thundering-herd
  // pattern whose duplicate requests the scheduler's in-batch coalescing
  // answers once per batch. (The paper's figure benches keep their uniform
  // sampling; this bench models the serving tier.)
  std::vector<double> cumulative(static_cast<std::size_t>(graph.num_nodes()));
  double total_weight = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    total_weight += static_cast<double>(graph.OutNeighbors(u).size());
    cumulative[static_cast<std::size_t>(u)] = total_weight;
  }
  Rng query_rng(7);
  const auto weighted_node = [&] {
    const double pick = query_rng.NextDouble() * total_weight;
    const auto at = std::lower_bound(cumulative.begin(), cumulative.end(), pick);
    return static_cast<NodeId>(at - cumulative.begin());
  };
  constexpr std::size_t kStreamLength = 4096;
  constexpr std::size_t kTrendingSetSize = 8;
  constexpr std::size_t kTrendingRotation = 512;  // hot set turns over
  constexpr double kTrendingFraction = 0.25;
  std::vector<NodeId> trending(kTrendingSetSize);
  std::vector<Query> queries;
  queries.reserve(kStreamLength);
  while (queries.size() < kStreamLength) {
    if (queries.size() % kTrendingRotation == 0) {
      for (NodeId& hot : trending) hot = weighted_node();
    }
    const NodeId source =
        query_rng.NextDouble() < kTrendingFraction
            ? trending[query_rng.NextBounded(kTrendingSetSize)]
            : weighted_node();
    queries.push_back(Query::Single(source, 10));
  }

  serving::BatchSchedulerOptions scheduler_options;
  scheduler_options.max_batch_size = 256;
  // Throughput measurement wants every request answered, not shed: the
  // client windows above can legitimately stack clients x window requests.
  scheduler_options.max_queue_depth = 0;

  // The sharded column is a scale-out configuration (1/P of the U⁻¹
  // payload per shard, no global pruning threshold), not a single-host
  // latency play — a query subset keeps its cells affordable.
  const std::vector<Query> sharded_queries(queries.begin(),
                                           queries.begin() + 256);

  // Cache-on twin of scheduler_options: same batching, plus the
  // cross-batch result cache. The stream's rotating hot set repeats
  // queries across batches, which is exactly the traffic the cache serves.
  serving::BatchSchedulerOptions cached_options = scheduler_options;
  cached_options.cache_entries = 1024;
  obs::Counter& cache_hits =
      obs::MetricRegistry::Global().GetCounter("cache.hit");

  const std::vector<int> client_counts{1, 2, 4, 8};
  PrintTableHeader({"clients", "sync_qps", "sched_qps", "sched_x",
                    "cached_qps", "cache_x", "sharded_qps", "dist_qps",
                    "dist_dead_qps", "p99_us"});

  // Five timed repetitions per cell, sync and scheduler interleaved so CPU
  // frequency / container-load drift hits both modes alike; report the
  // median-by-QPS of each. One untimed warmup pass first.
  const auto median = [](std::vector<Measurement> runs) {
    std::sort(runs.begin(), runs.end(),
              [](const Measurement& a, const Measurement& b) {
                return a.qps < b.qps;
              });
    return runs[runs.size() / 2];
  };
  RunSync(*engine, 1, sharded_queries);  // warmup

  std::vector<JsonObject> records;
  for (const int clients : client_counts) {
    std::vector<Measurement> sync_runs, scheduled_runs, cached_runs;
    std::vector<double> paired_ratios, cache_ratios;
    double cache_hit_frac = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      sync_runs.push_back(RunSync(*engine, clients, queries));
      serving::BatchScheduler scheduler(
          [&](std::span<const Query> batch) { return engine->SearchBatch(batch); },
          scheduler_options);
      Measurement m = RunScheduled(scheduler, clients, queries);
      scheduler.Shutdown();
      const auto stats = scheduler.stats();
      m.coalesced_frac = static_cast<double>(stats.coalesced) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, stats.submitted));
      scheduled_runs.push_back(m);
      // Paired ratio: this rep's sync and scheduled runs are adjacent in
      // time, so machine-load drift cancels out of the quotient.
      paired_ratios.push_back(m.qps / sync_runs.back().qps);

      // Cache-on twin, paired against the cache-off run just measured.
      // The cache is per-scheduler, so each rep starts cold — the measured
      // gain is what a fresh server sees over one pass of the stream.
      const std::uint64_t hits_before = cache_hits.Value();
      serving::BatchScheduler cached_scheduler(
          [&](std::span<const Query> batch) { return engine->SearchBatch(batch); },
          cached_options);
      cached_runs.push_back(RunScheduled(cached_scheduler, clients, queries));
      cached_scheduler.Shutdown();
      cache_hit_frac = static_cast<double>(cache_hits.Value() - hits_before) /
                       static_cast<double>(queries.size());
      cache_ratios.push_back(cached_runs.back().qps / m.qps);
    }
    std::sort(paired_ratios.begin(), paired_ratios.end());
    const double speedup = paired_ratios[paired_ratios.size() / 2];
    std::sort(cache_ratios.begin(), cache_ratios.end());
    const double cache_speedup = cache_ratios[cache_ratios.size() / 2];
    const Measurement sync = median(std::move(sync_runs));
    const Measurement scheduled = median(std::move(scheduled_runs));
    const Measurement cached = median(std::move(cached_runs));

    Measurement sharded_scheduled;
    {
      serving::BatchScheduler scheduler(
          [&](std::span<const Query> batch) {
            return sharded->SearchBatch(batch);
          },
          scheduler_options);
      sharded_scheduled = RunScheduled(scheduler, clients, sharded_queries);
      scheduler.Shutdown();
    }

    // Distributed tier: the router over one loopback worker per shard, on
    // the same query subset as the sharded column — first healthy, then
    // with the last worker killed under a degrade policy (answers stay
    // exact over the survivors; the cost is the failed slot's fast-fail
    // path on every query).
    Measurement dist, dist_dead;
    {
      std::vector<std::unique_ptr<BenchWorker>> workers;
      std::string spec;
      for (int s = 0; s < sharded->num_shards(); ++s) {
        workers.push_back(std::make_unique<BenchWorker>(sharded->shard(s)));
        if (s > 0) spec.append(",");
        spec.append("127.0.0.1:" + std::to_string(workers.back()->port()));
      }
      serving::RouterOptions router_options;
      router_options.failure_policy.mode = serving::ShardFailureMode::kDegrade;
      router_options.failure_policy.max_retries = 1;
      router_options.failure_policy.initial_backoff =
          std::chrono::microseconds(100);
      router_options.remote.reconnect_backoff = std::chrono::milliseconds(1);
      auto router = serving::Router::Connect(spec, router_options);
      KDASH_CHECK(router.ok()) << router.status();
      RunRouter(**router, 1, sharded_queries);  // warmup (connections, pools)
      dist = RunRouter(**router, clients, sharded_queries);
      workers.back()->Kill();
      dist_dead = RunRouter(**router, clients, sharded_queries);
    }

    PrintTableRow("c=" + std::to_string(clients),
                  {static_cast<double>(clients), sync.qps, scheduled.qps,
                   speedup, cached.qps, cache_speedup, sharded_scheduled.qps,
                   dist.qps, dist_dead.qps, scheduled.p99_us});
    records.push_back(JsonObject()
                          .Add("clients", clients)
                          .Add("sync_qps", sync.qps)
                          .Add("sync_p99_us", sync.p99_us)
                          .Add("scheduler_qps", scheduled.qps)
                          .Add("scheduler_p50_us", scheduled.p50_us)
                          .Add("scheduler_p99_us", scheduled.p99_us)
                          .Add("scheduler_speedup", speedup)
                          .Add("scheduler_coalesced_frac",
                               scheduled.coalesced_frac)
                          .Add("cached_scheduler_qps", cached.qps)
                          .Add("cached_scheduler_p99_us", cached.p99_us)
                          .Add("cache_speedup", cache_speedup)
                          .Add("cache_hit_frac", cache_hit_frac)
                          .Add("sharded_scheduler_qps", sharded_scheduled.qps)
                          .Add("distributed_qps", dist.qps)
                          .Add("distributed_p99_us", dist.p99_us)
                          .Add("distributed_dead_worker_qps", dist_dead.qps));
  }
  PrintJsonRecords("serving_throughput", records);
  return 0;
}

}  // namespace
}  // namespace kdash::bench

int main() { return kdash::bench::Main(); }
