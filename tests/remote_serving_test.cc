// Distributed serving: a serving::Router fanning out over real loopback
// TCP workers must be indistinguishable — ids AND scores, bit-for-bit —
// from the in-process ShardedEngine on the same shards. Covers the parity
// invariant for P ∈ {1, 2, 3} worker slots, exact degraded merges with a
// worker killed mid-run (identical to the in-process engine degraded by an
// injected fault on the same shard), replica failover, hedged requests
// against a deliberately slow primary, the worker health state machine
// across a kill + restart, and the deadline-aware retry backoff the wire
// deadline propagation depends on.
//
// Workers here are the real thing minus the process boundary: each one is
// a tools::LineServer over a BatchScheduler over shard engines — the exact
// stack `kdash_server <dir> --shards=... --port=N` runs — listening on an
// ephemeral loopback port. Killing one (Stop + drain) looks like a worker crash to the
// router: connects refused, pooled connections EOF.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/top_k.h"
#include "obs/metrics.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"
#include "serving/wire.h"
#include "test_util.h"
#include "tools/net_util.h"

namespace kdash::serving {
namespace {

fault::FaultSpec AlwaysFail(StatusCode code = StatusCode::kUnavailable) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = code;
  return spec;
}

// One in-process worker: LineServer + BatchScheduler over a backend, on an
// ephemeral (or pinned, for restarts) loopback port.
class TestWorker {
 public:
  TestWorker(BatchScheduler::Backend backend, tools::StreamConfig config,
             int port = 0)
      : scheduler_(std::move(backend)),
        server_(scheduler_, config) {
    const Status listening = server_.Listen(port);
    KDASH_CHECK(listening.ok()) << listening;
    thread_ = std::thread([this] { server_.Serve(); });
  }

  ~TestWorker() { Kill(); }

  int port() const { return server_.port(); }

  // Simulates a crash as the router sees one: the listener closes (new
  // connects refused) and live connections drain away (pooled connections
  // see EOF on their next use).
  void Kill() {
    if (!thread_.joinable()) return;
    server_.Stop();
    thread_.join();
    scheduler_.Shutdown();
  }

 private:
  BatchScheduler scheduler_;
  tools::LineServer server_;
  std::thread thread_;
};

// A worker backend serving exactly one shard engine of a ShardedEngine.
// The engine must outlive the worker.
BatchScheduler::Backend ShardBackend(const Engine& shard) {
  return [&shard](std::span<const Query> queries) {
    return shard.SearchBatch(queries);
  };
}

// A worker backend over a subset of a saved sharded index — what
// `kdash_server dir/ --shards=a,b` runs.
BatchScheduler::Backend SubsetBackend(const ShardedEngine& subset) {
  return [&subset](std::span<const Query> queries) {
    return subset.SearchBatch(queries);
  };
}

tools::StreamConfig WorkerStream(int shards, long long nodes) {
  tools::StreamConfig config;
  config.pong_shards = shards;
  config.pong_nodes = nodes;
  return config;
}

class RemoteServingTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }

  ShardedEngine BuildSharded(const graph::Graph& graph, int num_shards,
                             ShardFailurePolicy policy = {}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.failure_policy = policy;
    auto sharded = ShardedEngine::Build(graph, options);
    KDASH_CHECK(sharded.ok()) << sharded.status();
    return std::move(*sharded);
  }

  // One single-shard TestWorker per shard of `sharded`, plus the router
  // spec string addressing them.
  std::vector<std::unique_ptr<TestWorker>> SpawnWorkers(
      const ShardedEngine& sharded, std::string* spec) {
    std::vector<std::unique_ptr<TestWorker>> workers;
    spec->clear();
    for (int s = 0; s < sharded.num_shards(); ++s) {
      workers.push_back(std::make_unique<TestWorker>(
          ShardBackend(sharded.shard(s)),
          WorkerStream(1, sharded.shard_end(s) - sharded.shard_begin(s))));
      if (s > 0) spec->append(",");
      spec->append("127.0.0.1:" + std::to_string(workers.back()->port()));
    }
    return workers;
  }

  // Fast-failing transport so dead-worker tests stay quick.
  static RouterOptions FastOptions(ShardFailureMode mode) {
    RouterOptions options;
    options.failure_policy.mode = mode;
    options.failure_policy.initial_backoff = std::chrono::microseconds(100);
    options.remote.connect_timeout = std::chrono::milliseconds(200);
    options.remote.io_timeout = std::chrono::milliseconds(2000);
    options.remote.reconnect_backoff = std::chrono::milliseconds(1);
    options.probe_period = std::chrono::milliseconds(0);  // no prober
    options.hedging = false;
    return options;
  }

  static std::vector<Query> MixedQueries(NodeId n) {
    std::vector<Query> queries;
    for (NodeId q = 0; q < n; q += std::max<NodeId>(1, n / 11)) {
      queries.push_back(Query::Single(q, 10));
    }
    queries.push_back(Query::Single(0, static_cast<std::size_t>(n) + 5));
    Query excluded = Query::Single(n / 2, 8);
    excluded.exclude = {n / 2, 0, n - 1};
    queries.push_back(excluded);
    queries.push_back(Query::Personalized({0, n / 2, n - 1}, 12));
    Query unpruned = Query::Single(1, 10);
    unpruned.use_pruning = false;
    queries.push_back(unpruned);
    return queries;
  }

  static void ExpectBitIdentical(const SearchResult& got,
                                 const SearchResult& expected,
                                 const std::string& what) {
    ASSERT_EQ(got.top.size(), expected.top.size()) << what;
    for (std::size_t r = 0; r < expected.top.size(); ++r) {
      EXPECT_EQ(got.top[r].node, expected.top[r].node)
          << what << " rank " << r;
      // Bit-identical, not approximately equal: scores cross the wire as
      // hexfloats, so lossy decimal formatting cannot creep in.
      EXPECT_EQ(got.top[r].score, expected.top[r].score)
          << what << " rank " << r;
    }
  }
};

TEST_F(RemoteServingTest, BitIdenticalToInProcessShardedEngine) {
  const auto graph = test::RandomDirectedGraph(120, 700, 17);
  for (const int num_shards : {1, 2, 3}) {
    const auto sharded = BuildSharded(graph, num_shards);
    std::string spec;
    auto workers = SpawnWorkers(sharded, &spec);
    auto router = Router::Connect(spec, FastOptions(ShardFailureMode::kFailFast));
    ASSERT_TRUE(router.ok()) << router.status();
    ASSERT_EQ((*router)->num_slots(), num_shards);
    ASSERT_EQ((*router)->shards_total(), num_shards);

    const auto queries = MixedQueries(graph.num_nodes());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto expected = sharded.Search(queries[i]);
      const auto got = (*router)->Search(queries[i]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(got.ok()) << got.status();
      const std::string what =
          "P=" + std::to_string(num_shards) + " query " + std::to_string(i);
      ExpectBitIdentical(*got, *expected, what);
      // Work accounting crosses the wire too, tree sizes included.
      EXPECT_EQ(got->stats.nodes_visited, expected->stats.nodes_visited)
          << what;
      EXPECT_EQ(got->stats.tree_size, expected->stats.tree_size) << what;
      EXPECT_EQ(got->stats.proximity_computations,
                expected->stats.proximity_computations)
          << what;
      EXPECT_EQ(got->stats.terminated_early, expected->stats.terminated_early)
          << what;
      EXPECT_EQ(got->shards_ok, num_shards) << what;
      EXPECT_EQ(got->shards_failed, 0) << what;
    }

    // Batch path: one flat fan-out, same answers.
    const auto expected_batch = sharded.SearchBatch(queries);
    const auto got_batch = (*router)->SearchBatch(queries);
    ASSERT_TRUE(expected_batch.ok());
    ASSERT_TRUE(got_batch.ok());
    ASSERT_EQ(got_batch->size(), expected_batch->size());
    for (std::size_t i = 0; i < expected_batch->size(); ++i) {
      ExpectBitIdentical((*got_batch)[i], (*expected_batch)[i],
                         "batch query " + std::to_string(i));
      EXPECT_EQ((*got_batch)[i].stats.tree_size,
                (*expected_batch)[i].stats.tree_size)
          << "batch query " << i;
    }
  }
}

TEST_F(RemoteServingTest, KilledWorkerDegradesExactlyLikeInProcessFault) {
  const auto graph = test::RandomDirectedGraph(100, 600, 23);
  constexpr int kShards = 3;
  constexpr int kDead = 1;
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 1;
  policy.initial_backoff = std::chrono::microseconds(100);
  const auto sharded = BuildSharded(graph, kShards, policy);

  std::string spec;
  auto workers = SpawnWorkers(sharded, &spec);
  auto options = FastOptions(ShardFailureMode::kDegrade);
  options.failure_policy.max_retries = 1;
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();

  // A query before the kill is complete.
  const Query probe_query = Query::Single(3, 10);
  auto complete = (*router)->Search(probe_query);
  ASSERT_TRUE(complete.ok()) << complete.status();
  EXPECT_EQ(complete->shards_failed, 0);

  workers[kDead]->Kill();

  const auto queries = MixedQueries(graph.num_nodes());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // The in-process expectation: the same engine with the same shard
    // killed by an injected fault, under the same degrade policy.
    SearchResult expected;
    {
      fault::ScopedFault guard("sharded.shard_search.s" + std::to_string(kDead),
                               AlwaysFail());
      auto result = sharded.Search(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status();
      expected = std::move(*result);
    }
    const auto got = (*router)->Search(queries[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    const std::string what = "degraded query " + std::to_string(i);
    ExpectBitIdentical(*got, expected, what);
    EXPECT_TRUE(got->degraded()) << what;
    EXPECT_EQ(got->shards_ok, expected.shards_ok) << what;
    EXPECT_EQ(got->shards_failed, expected.shards_failed) << what;
  }

  // Under kFailFast the same dead worker fails the whole query instead.
  ShardFailurePolicy fail_fast;
  fail_fast.mode = ShardFailureMode::kFailFast;
  ASSERT_TRUE((*router)->set_failure_policy(fail_fast).ok());
  const auto failed = (*router)->Search(probe_query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST_F(RemoteServingTest, MultiShardWorkersMatchInProcessEngine) {
  // Two workers over one saved P=3 index: one owns shards {0, 2}, the
  // other shard {1}. The router must not be able to tell this topology
  // from the in-process engine over all three shards.
  const auto graph = test::RandomDirectedGraph(120, 700, 17);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 1;
  policy.initial_backoff = std::chrono::microseconds(100);
  const auto sharded = BuildSharded(graph, 3, policy);
  const std::string dir = ::testing::TempDir() + "/kdash_remote_multi_shard";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(sharded.Save(dir).ok());
  auto outer = ShardedEngine::Open(dir, {0, 2});
  auto middle = ShardedEngine::Open(dir, {1});
  ASSERT_TRUE(outer.ok()) << outer.status();
  ASSERT_TRUE(middle.ok()) << middle.status();

  auto outer_worker = std::make_unique<TestWorker>(
      SubsetBackend(*outer),
      WorkerStream(outer->num_shards(), outer->owned_nodes()));
  TestWorker middle_worker(
      SubsetBackend(*middle),
      WorkerStream(middle->num_shards(), middle->owned_nodes()));
  auto options = FastOptions(ShardFailureMode::kDegrade);
  options.failure_policy.max_retries = 1;
  auto router = Router::Connect(
      "127.0.0.1:" + std::to_string(outer_worker->port()) + ",127.0.0.1:" +
          std::to_string(middle_worker.port()),
      options);
  ASSERT_TRUE(router.ok()) << router.status();
  // The {0, 2} worker's pong advertised two shards and their nodes.
  EXPECT_EQ((*router)->worker(0, 0).shard_weight(), 2);
  EXPECT_EQ((*router)->worker(0, 0).advertised_nodes(), outer->owned_nodes());
  EXPECT_EQ((*router)->shards_total(), 3);

  const auto queries = MixedQueries(graph.num_nodes());
  const auto expect_parity = [](const SearchResult& got,
                                const SearchResult& expected,
                                const std::string& what) {
    ExpectBitIdentical(got, expected, what);
    EXPECT_EQ(got.stats.nodes_visited, expected.stats.nodes_visited) << what;
    EXPECT_EQ(got.stats.proximity_computations,
              expected.stats.proximity_computations)
        << what;
    EXPECT_EQ(got.stats.tree_size, expected.stats.tree_size) << what;
    EXPECT_EQ(got.stats.terminated_early, expected.stats.terminated_early)
        << what;
    EXPECT_EQ(got.shards_ok, 3) << what;
    EXPECT_EQ(got.shards_failed, 0) << what;
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = sharded.Search(queries[i]);
    const auto got = (*router)->Search(queries[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(got.ok()) << got.status();
    expect_parity(*got, *expected, "query " + std::to_string(i));
  }
  const auto expected_batch = sharded.SearchBatch(queries);
  const auto got_batch = (*router)->SearchBatch(queries);
  ASSERT_TRUE(expected_batch.ok()) << expected_batch.status();
  ASSERT_TRUE(got_batch.ok()) << got_batch.status();
  ASSERT_EQ(got_batch->size(), expected_batch->size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_parity((*got_batch)[i], (*expected_batch)[i],
                  "batch query " + std::to_string(i));
  }

  // Killing the {0, 2} worker loses two shards at once.
  outer_worker->Kill();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SearchResult expected;
    {
      fault::ScopedFault s0("sharded.shard_search.s0", AlwaysFail());
      fault::ScopedFault s2("sharded.shard_search.s2", AlwaysFail());
      auto result = sharded.Search(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status();
      expected = std::move(*result);
    }
    const auto got = (*router)->Search(queries[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    const std::string what = "degraded query " + std::to_string(i);
    ExpectBitIdentical(*got, expected, what);
    EXPECT_EQ(got->shards_ok, 1) << what;
    EXPECT_EQ(got->shards_failed, 2) << what;
  }

  // The router's policy setter validates like Connect does.
  ShardFailurePolicy bad = options.failure_policy;
  bad.min_shards_ok = 0;
  EXPECT_EQ((*router)->set_failure_policy(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*router)->failure_policy().min_shards_ok, 1);
  std::filesystem::remove_all(dir);
}

TEST_F(RemoteServingTest, FailoverServesFromReplicaWhenPrimaryDies) {
  const auto graph = test::RandomDirectedGraph(80, 450, 31);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  // One slot, two replicas of the same shard.
  TestWorker primary(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  TestWorker replica(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  const std::string spec = "127.0.0.1:" + std::to_string(primary.port()) +
                           "+127.0.0.1:" + std::to_string(replica.port());
  auto options = FastOptions(ShardFailureMode::kRetry);
  options.remote.down_after_failures = 1;
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ((*router)->num_slots(), 1);
  ASSERT_EQ((*router)->num_replicas(0), 2);

  const Query query = Query::Single(7, 10);
  const auto expected = sharded.Search(query);
  ASSERT_TRUE(expected.ok());

  primary.Kill();

  obs::Counter& failovers =
      obs::MetricRegistry::Global().GetCounter("router.failovers");
  const std::uint64_t failovers_before = failovers.Value();
  const auto got = (*router)->Search(query);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "failover");
  EXPECT_EQ(got->shards_failed, 0);  // the replica made the slot whole
  EXPECT_GT(failovers.Value(), failovers_before);

  // Once the primary is marked down, later queries go straight to the
  // replica and stay complete.
  const auto again = (*router)->Search(query);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->shards_failed, 0);
}

TEST_F(RemoteServingTest, HedgedRequestBeatsSlowPrimary) {
  const auto graph = test::RandomDirectedGraph(80, 450, 37);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  // The primary answers correctly but slowly; the replica is prompt. With
  // a pinned 2ms hedge delay every query should hedge, and the hedge
  // should win.
  constexpr auto kSlow = std::chrono::milliseconds(250);
  BatchScheduler::Backend slow_backend =
      [&engine = sharded.shard(0), kSlow](std::span<const Query> queries) {
        std::this_thread::sleep_for(kSlow);
        return engine.SearchBatch(queries);
      };
  TestWorker slow(std::move(slow_backend), WorkerStream(1, nodes));
  TestWorker prompt(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  const std::string spec = "127.0.0.1:" + std::to_string(slow.port()) +
                           "+127.0.0.1:" + std::to_string(prompt.port());
  auto options = FastOptions(ShardFailureMode::kRetry);
  options.hedging = true;
  options.hedge_delay = std::chrono::milliseconds(2);
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();

  const Query query = Query::Single(5, 10);
  const auto expected = sharded.Search(query);
  ASSERT_TRUE(expected.ok());

  obs::Counter& hedges =
      obs::MetricRegistry::Global().GetCounter("router.hedges");
  obs::Counter& hedge_wins =
      obs::MetricRegistry::Global().GetCounter("router.hedge_wins");
  const std::uint64_t hedges_before = hedges.Value();
  const std::uint64_t wins_before = hedge_wins.Value();

  const auto start = std::chrono::steady_clock::now();
  const auto got = (*router)->Search(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "hedged");
  EXPECT_GT(hedges.Value(), hedges_before);
  EXPECT_GT(hedge_wins.Value(), wins_before);
  // The hedge answered well before the slow primary would have.
  EXPECT_LT(elapsed, kSlow);

  // The counters surface in the {"stats":1} snapshot payload.
  const std::string snapshot = obs::MetricRegistry::Global().SnapshotToJson();
  const std::string entry = "\"name\":\"router.hedges\",\"type\":\"counter\",\"value\":";
  const std::size_t pos = snapshot.find(entry);
  ASSERT_NE(pos, std::string::npos) << snapshot;
  EXPECT_NE(snapshot[pos + entry.size()], '0') << snapshot;
}

TEST_F(RemoteServingTest, ProberMarksWorkerDownAndBackUpAcrossRestart) {
  const auto graph = test::RandomDirectedGraph(60, 300, 41);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  auto worker = std::make_unique<TestWorker>(ShardBackend(sharded.shard(0)),
                                             WorkerStream(1, nodes));
  const int port = worker->port();
  auto options = FastOptions(ShardFailureMode::kRetry);
  options.probe_period = std::chrono::milliseconds(20);
  options.remote.down_after_failures = 1;
  options.remote.connect_timeout = std::chrono::milliseconds(100);
  auto router = Router::Connect("127.0.0.1:" + std::to_string(port), options);
  ASSERT_TRUE(router.ok()) << router.status();
  EXPECT_TRUE((*router)->slot_healthy(0));

  const auto wait_for_health = [&](bool want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*router)->slot_healthy(0) != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return (*router)->slot_healthy(0) == want;
  };

  worker->Kill();
  EXPECT_TRUE(wait_for_health(false)) << "prober never marked the slot down";

  // Restart on the same port; the prober (which bypasses the reconnect
  // backoff gate) must mark it back up.
  worker = std::make_unique<TestWorker>(ShardBackend(sharded.shard(0)),
                                        WorkerStream(1, nodes), port);
  EXPECT_TRUE(wait_for_health(true)) << "prober never marked the slot back up";

  const Query query = Query::Single(2, 10);
  const auto expected = sharded.Search(query);
  const auto got = (*router)->Search(query);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "after restart");
}

TEST_F(RemoteServingTest, WireDeadlinePropagatesToWorker) {
  const auto graph = test::RandomDirectedGraph(60, 300, 43);
  const auto sharded = BuildSharded(graph, 1);

  TestWorker worker(ShardBackend(sharded.shard(0)),
                    WorkerStream(1, graph.num_nodes()));
  auto options = FastOptions(ShardFailureMode::kFailFast);
  auto router =
      Router::Connect("127.0.0.1:" + std::to_string(worker.port()), options);
  ASSERT_TRUE(router.ok()) << router.status();

  // An already-expired deadline crosses the wire as deadline_us=0; the
  // worker's scheduler expires the request instead of computing a dead
  // answer, and the canonical code comes back across the error record.
  Query expired = Query::Single(1, 10);
  expired.deadline = std::chrono::steady_clock::now();
  const auto result = (*router)->Search(expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RemoteServingTest, ShardedRetryBackoffIsDeadlineAware) {
  // Satellite regression: a kRetry engine whose backoff (100ms, 200ms)
  // dwarfs the query's 10ms budget must fail fast with DEADLINE_EXCEEDED
  // once the budget expires — not sleep out 300ms of useless backoff.
  const auto graph = test::RandomDirectedGraph(60, 300, 47);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kRetry;
  policy.max_retries = 2;
  policy.initial_backoff = std::chrono::milliseconds(100);
  policy.max_backoff = std::chrono::milliseconds(200);
  const auto sharded = BuildSharded(graph, 2, policy);

  fault::ScopedFault guard("sharded.shard_search.s0", AlwaysFail());
  Query query = Query::Single(1, 10);
  query.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  const auto start = std::chrono::steady_clock::now();
  const auto result = sharded.Search(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Far below the 300ms an unclamped backoff schedule would sleep.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
}

TEST_F(RemoteServingTest, WireRecordsRoundTripExactly) {
  // The hexfloat side channel is what makes distributed parity possible:
  // %.12g alone would drop bits.
  Query query = Query::Personalized({3, 9}, 4);
  query.exclude = {1};
  query.use_pruning = false;
  const std::string line = wire::FormatRequestLine(query);
  EXPECT_NE(line.find("hex=1"), std::string::npos);
  EXPECT_NE(line.find("pruning=0"), std::string::npos);

  SearchResult result;
  result.top = {{7, static_cast<Scalar>(0.12345678901234567)},
                {2, static_cast<Scalar>(1.0) / 3}};
  result.stats.nodes_visited = 42;
  result.stats.proximity_computations = 17;
  result.stats.tree_size = 64;
  const std::string record = tools::FormatResultRecord(
      9, query, result, /*t_us=*/5, /*hex_scores=*/true);
  auto parsed = wire::ParseRecordLine(record);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->kind, wire::ParsedRecord::Kind::kResult);
  EXPECT_EQ(parsed->id, 9);
  ASSERT_EQ(parsed->result.top.size(), result.top.size());
  for (std::size_t r = 0; r < result.top.size(); ++r) {
    EXPECT_EQ(parsed->result.top[r].node, result.top[r].node);
    EXPECT_EQ(parsed->result.top[r].score, result.top[r].score);  // exact
  }
  EXPECT_EQ(parsed->result.stats.nodes_visited, 42);
  EXPECT_EQ(parsed->result.stats.proximity_computations, 17);
  EXPECT_EQ(parsed->result.stats.tree_size, 64);

  // A record without the "tree" field parses with a tree size of 0.
  const std::string tree_field = ",\"tree\":64";
  std::string treeless = record;
  ASSERT_NE(treeless.find(tree_field), std::string::npos) << record;
  treeless.erase(treeless.find(tree_field), tree_field.size());
  auto parsed_treeless = wire::ParseRecordLine(treeless);
  ASSERT_TRUE(parsed_treeless.ok()) << parsed_treeless.status();
  EXPECT_EQ(parsed_treeless->result.stats.tree_size, 0);
  EXPECT_EQ(parsed_treeless->result.stats.proximity_computations, 17);

  // Error records carry the canonical code across the boundary.
  const std::string error_record = tools::FormatErrorRecord(
      3, Status::DeadlineExceeded("too slow"), /*t_us=*/1);
  auto parsed_error = wire::ParseRecordLine(error_record);
  ASSERT_TRUE(parsed_error.ok()) << parsed_error.status();
  ASSERT_EQ(parsed_error->kind, wire::ParsedRecord::Kind::kError);
  EXPECT_EQ(parsed_error->error.code(), StatusCode::kDeadlineExceeded);

  // Pongs advertise the worker footprint.
  auto parsed_pong =
      wire::ParseRecordLine(tools::FormatPongRecord(0, 2, /*shards=*/3,
                                                    /*nodes=*/120));
  ASSERT_TRUE(parsed_pong.ok()) << parsed_pong.status();
  ASSERT_EQ(parsed_pong->kind, wire::ParsedRecord::Kind::kPong);
  EXPECT_EQ(parsed_pong->pong_shards, 3);
  EXPECT_EQ(parsed_pong->pong_nodes, 120);
}

}  // namespace
}  // namespace kdash::serving
