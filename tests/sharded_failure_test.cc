// Per-shard failure domains: a shard search failure must no longer poison
// the whole fan-out. Covers the three ShardFailureMode policies against
// deterministic injected faults, the exactness invariant of degraded
// merges (bit-identical to an engine over the surviving shards), and the
// shards_ok/shards_failed result tags.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/top_k.h"
#include "serving/sharded_engine.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

// The per-shard injection site for shard s.
std::string ShardSite(int s) {
  return "sharded.shard_search.s" + std::to_string(s);
}

fault::FaultSpec AlwaysFail(StatusCode code = StatusCode::kUnavailable) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = code;
  return spec;
}

class ShardedFailureTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }

  static constexpr int kShards = 3;

  ShardedEngine BuildSharded(const graph::Graph& graph,
                             ShardFailurePolicy policy = {}) {
    ShardedEngineOptions options;
    options.num_shards = kShards;
    options.failure_policy = policy;
    auto sharded = ShardedEngine::Build(graph, options);
    KDASH_CHECK(sharded.ok()) << sharded.status();
    return std::move(*sharded);
  }

  // The exact merge a degraded query must reproduce: each surviving
  // shard's own exact top-k, merged under the library-wide total order.
  static SearchResult MergeSurvivors(const ShardedEngine& sharded,
                                     const Query& query,
                                     const std::vector<int>& survivors) {
    TopKHeap heap(query.k);
    for (const int s : survivors) {
      auto partial = sharded.shard(s).Search(query);
      KDASH_CHECK(partial.ok()) << partial.status();
      for (const ScoredNode& entry : partial->top) {
        heap.Push(entry.node, entry.score);
      }
    }
    SearchResult merged;
    merged.top = heap.Sorted();
    return merged;
  }

  static void ExpectBitIdentical(const SearchResult& got,
                                 const SearchResult& expected,
                                 const char* what) {
    ASSERT_EQ(got.top.size(), expected.top.size()) << what;
    for (std::size_t r = 0; r < expected.top.size(); ++r) {
      EXPECT_EQ(got.top[r].node, expected.top[r].node) << what << " rank " << r;
      EXPECT_EQ(got.top[r].score, expected.top[r].score)
          << what << " rank " << r;
    }
  }
};

TEST_F(ShardedFailureTest, FailFastPropagatesInjectedShardError) {
  const auto graph = test::RandomDirectedGraph(90, 500, 3);
  const auto sharded = BuildSharded(graph);  // default: kFailFast

  fault::ScopedFault guard(ShardSite(1), AlwaysFail(StatusCode::kInternal));
  const auto result = sharded.Search(Query::Single(5, 10));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find(ShardSite(1)), std::string::npos);
  EXPECT_EQ(sharded.failure_stats().shard_retries, 0u);
  EXPECT_GE(sharded.failure_stats().shard_failures, 1u);
}

TEST_F(ShardedFailureTest, RetryRecoversFromTransientShardFault) {
  const auto graph = test::RandomDirectedGraph(90, 500, 3);
  auto single = Engine::Build(graph);
  ASSERT_TRUE(single.ok()) << single.status();

  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kRetry;
  policy.max_retries = 2;
  policy.initial_backoff = std::chrono::microseconds(10);
  const auto sharded = BuildSharded(graph, policy);

  auto spec = AlwaysFail();
  spec.max_fires = 1;  // fails exactly once; the retry must succeed
  fault::ScopedFault guard(ShardSite(2), spec);

  const Query query = Query::Single(7, 12);
  const auto got = sharded.Search(query);
  const auto expected = single->Search(query);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(expected.ok());
  ExpectBitIdentical(*got, *expected, "retry-recovered");
  EXPECT_EQ(got->shards_ok, kShards);
  EXPECT_EQ(got->shards_failed, 0);
  EXPECT_FALSE(got->degraded());
  EXPECT_EQ(sharded.failure_stats().shard_retries, 1u);
  EXPECT_EQ(sharded.failure_stats().degraded_queries, 0u);
}

TEST_F(ShardedFailureTest, RetryExhaustsWithBoundedAttempts) {
  const auto graph = test::RandomDirectedGraph(90, 500, 3);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kRetry;
  policy.max_retries = 2;
  policy.initial_backoff = std::chrono::microseconds(10);
  const auto sharded = BuildSharded(graph, policy);

  fault::ScopedFault guard(ShardSite(0), AlwaysFail());
  const auto result = sharded.Search(Query::Single(1, 5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Exactly 1 + max_retries attempts hit the per-shard site — bounded, no
  // runaway retry loop.
  EXPECT_EQ(fault::GetStats(ShardSite(0)).evaluations, 3u);
  EXPECT_EQ(sharded.failure_stats().shard_retries, 2u);
}

TEST_F(ShardedFailureTest, DegradeMergesSurvivorsExactlyForEveryLostShard) {
  const auto graph = test::RandomDirectedGraph(120, 700, 11);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 0;
  const auto sharded = BuildSharded(graph, policy);

  std::vector<Query> queries;
  queries.push_back(Query::Single(5, 10));
  queries.push_back(Query::Personalized({0, 60, 119}, 15));
  Query excluded = Query::Single(100, 8);
  excluded.exclude = {100, 3};
  queries.push_back(excluded);

  for (int lost = 0; lost < kShards; ++lost) {
    fault::ScopedFault guard(ShardSite(lost), AlwaysFail());
    std::vector<int> survivors;
    for (int s = 0; s < kShards; ++s) {
      if (s != lost) survivors.push_back(s);
    }
    for (const Query& query : queries) {
      const auto got = sharded.Search(query);
      ASSERT_TRUE(got.ok()) << "lost shard " << lost << ": " << got.status();
      EXPECT_EQ(got->shards_ok, kShards - 1);
      EXPECT_EQ(got->shards_failed, 1);
      EXPECT_TRUE(got->degraded());
      const SearchResult expected = MergeSurvivors(sharded, query, survivors);
      ExpectBitIdentical(*got, expected, "degraded merge");
    }
  }
  EXPECT_EQ(sharded.failure_stats().degraded_queries,
            static_cast<std::uint64_t>(kShards * queries.size()));
}

TEST_F(ShardedFailureTest, DegradedResultMatchesRestrictedEngineBitwise) {
  // Losing the *last* shard leaves a contiguous [0, b) survivor range, so
  // the degraded answer must be bit-identical to one engine restricted to
  // exactly that range — the strongest form of "no silent wrong answer".
  const auto graph = test::RandomDirectedGraph(120, 700, 11);
  auto single = Engine::Build(graph);
  ASSERT_TRUE(single.ok()) << single.status();

  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 0;
  const auto sharded = BuildSharded(graph, policy);
  const NodeId survivor_end = sharded.shard_begin(kShards - 1);
  const Engine restricted =
      Engine::FromIndex(single->index().Restrict(0, survivor_end));

  fault::ScopedFault guard(ShardSite(kShards - 1), AlwaysFail());
  for (const NodeId source : {NodeId{0}, NodeId{42}, NodeId{119}}) {
    const Query query = Query::Single(source, 10);
    const auto got = sharded.Search(query);
    const auto expected = restricted.Search(query);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectBitIdentical(*got, *expected, "restricted-engine equivalence");
  }
}

TEST_F(ShardedFailureTest, DegradeBelowMinimumFailsCleanly) {
  const auto graph = test::RandomDirectedGraph(90, 500, 3);

  {
    // Every shard down: nothing to serve from.
    ShardFailurePolicy policy;
    policy.mode = ShardFailureMode::kDegrade;
    policy.max_retries = 0;
    const auto sharded = BuildSharded(graph, policy);
    fault::ScopedFault guard("sharded.shard_search", AlwaysFail());
    const auto result = sharded.Search(Query::Single(0, 5));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  {
    // min_shards_ok = all shards: a single loss is already too much.
    ShardFailurePolicy policy;
    policy.mode = ShardFailureMode::kDegrade;
    policy.max_retries = 0;
    policy.min_shards_ok = kShards;
    const auto sharded = BuildSharded(graph, policy);
    fault::ScopedFault guard(ShardSite(1), AlwaysFail());
    const auto result = sharded.Search(Query::Single(0, 5));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("min_shards_ok"),
              std::string::npos);
  }
}

TEST_F(ShardedFailureTest, InvalidQueryNeverDegradesOrRetries) {
  const auto graph = test::RandomDirectedGraph(90, 500, 3);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 5;
  const auto sharded = BuildSharded(graph, policy);

  const auto result =
      sharded.Search(Query::Single(graph.num_nodes() + 17, 5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // No retries: the failure is deterministic caller error, and degrading
  // would have masked it as a "partial success".
  EXPECT_EQ(sharded.failure_stats().shard_retries, 0u);
  EXPECT_EQ(sharded.failure_stats().degraded_queries, 0u);
}

TEST_F(ShardedFailureTest, BatchTagsEveryDegradedResult) {
  const auto graph = test::RandomDirectedGraph(120, 700, 11);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 0;
  const auto sharded = BuildSharded(graph, policy);

  std::vector<Query> batch;
  for (NodeId q = 0; q < 12; ++q) batch.push_back(Query::Single(q * 9, 10));

  {
    fault::ScopedFault guard(ShardSite(0), AlwaysFail());
    const auto results = sharded.SearchBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      const SearchResult& got = (*results)[q];
      EXPECT_EQ(got.shards_ok, kShards - 1) << "query " << q;
      EXPECT_EQ(got.shards_failed, 1) << "query " << q;
      const SearchResult expected = MergeSurvivors(sharded, batch[q], {1, 2});
      ExpectBitIdentical(got, expected, "batch degraded merge");
    }
  }

  // Faults gone: the same batch is complete again and tagged as such.
  const auto healthy = sharded.SearchBatch(batch);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  for (const SearchResult& result : *healthy) {
    EXPECT_EQ(result.shards_ok, kShards);
    EXPECT_EQ(result.shards_failed, 0);
    EXPECT_FALSE(result.degraded());
  }
}

TEST_F(ShardedFailureTest, BuildRejectsBadPolicy) {
  const auto graph = test::SmallDirectedGraph();
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.failure_policy.max_retries = -1;
  EXPECT_EQ(ShardedEngine::Build(graph, options).status().code(),
            StatusCode::kInvalidArgument);
  options.failure_policy.max_retries = 0;
  options.failure_policy.min_shards_ok = 0;
  EXPECT_EQ(ShardedEngine::Build(graph, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardedFailureTest, SetterRejectsBadPolicy) {
  // min_shards_ok = 0 would let a query whose shards all fail come back OK
  // with an empty top list; the setter must refuse it like Build does.
  const auto graph = test::SmallDirectedGraph();
  auto sharded = BuildSharded(graph);
  ShardFailurePolicy bad;
  bad.mode = ShardFailureMode::kDegrade;
  bad.min_shards_ok = 0;
  EXPECT_EQ(sharded.set_failure_policy(bad).code(),
            StatusCode::kInvalidArgument);
  bad.min_shards_ok = 1;
  bad.max_retries = -1;
  EXPECT_EQ(sharded.set_failure_policy(bad).code(),
            StatusCode::kInvalidArgument);
  // Nothing rejected took effect.
  EXPECT_EQ(sharded.failure_policy().mode, ShardFailureMode::kFailFast);

  fault::ScopedFault guard("sharded.shard_search", AlwaysFail());
  EXPECT_FALSE(sharded.Search(Query::Single(0, 3)).ok());
}

}  // namespace
}  // namespace kdash::serving
