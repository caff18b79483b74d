// The shared fan-out core over fake slots — no engines, no sockets. Each
// slot is a scripted SlotSearch, so the failure policy, the two-phase skip
// and the merge are checked in isolation: fail-fast error order, bounded
// retries, deadline-capped backoff, degraded accounting in shard units,
// the strict-< skip rule, and the exact (score desc, id asc) merge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "serving/fan_out.h"

namespace kdash::serving {
namespace {

using Clock = std::chrono::steady_clock;

// A scripted slot: a fixed answer (or a fixed error) and an attempt count.
struct FakeSlot {
  FanOutSlot slot;
  Status status = Status::Ok();
  std::vector<ScoredNode> top;
  Index nodes_visited = 1;
  std::atomic<int> attempts{0};
};

class FanOutTest : public ::testing::Test {
 protected:
  FakeSlot& Add(int weight = 1) {
    fakes_.emplace_back();
    FakeSlot& fake = fakes_.back();
    fake.slot.id = static_cast<int>(fakes_.size()) - 1;
    fake.slot.weight = weight;
    return fake;
  }

  Result<std::vector<SearchResult>> Run(std::span<const Query> queries,
                                        const ShardFailurePolicy& policy) {
    std::vector<FanOutSlot> slots;
    for (const FakeSlot& fake : fakes_) slots.push_back(fake.slot);
    const SlotSearch search = [this](const Query&, std::size_t s, int,
                                     SearchResult* out) {
      FakeSlot& fake = fakes_[s];
      fake.attempts.fetch_add(1);
      if (!fake.status.ok()) return fake.status;
      out->top = fake.top;
      out->stats.nodes_visited = fake.nodes_visited;
      return Status::Ok();
    };
    return FanOut(queries, slots, policy, pool_, search, report_);
  }

  Result<SearchResult> RunOne(const Query& query,
                              const ShardFailurePolicy& policy = {}) {
    KDASH_ASSIGN_OR_RETURN(auto results, Run({&query, 1}, policy));
    return std::move(results.front());
  }

  static ShardFailurePolicy Policy(ShardFailureMode mode, int max_retries = 2) {
    ShardFailurePolicy policy;
    policy.mode = mode;
    policy.max_retries = max_retries;
    policy.initial_backoff = std::chrono::microseconds(10);
    return policy;
  }

  ThreadPool pool_{4};
  FanOutReport report_{.merge_span = "test.merge", .skip_span = "test.skip"};
  std::deque<FakeSlot> fakes_;  // stable addresses; FakeSlot is not movable
};

TEST_F(FanOutTest, MergesExactlyUnderTheTotalOrderAndSumsStats) {
  Add().top = {{1, 0.5}, {2, 0.25}};
  Add().top = {{7, 0.3}, {5, 0.5}};
  const auto result = RunOne(Query::Single(100, 3));
  ASSERT_TRUE(result.ok()) << result.status();
  // The 0.5 tie breaks by ascending id.
  const std::vector<ScoredNode> expected = {{1, 0.5}, {5, 0.5}, {7, 0.3}};
  ASSERT_EQ(result->top.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(result->top[r].node, expected[r].node) << "rank " << r;
    EXPECT_EQ(result->top[r].score, expected[r].score) << "rank " << r;
  }
  EXPECT_EQ(result->stats.nodes_visited, 2);
  EXPECT_EQ(result->shards_ok, 2);
  EXPECT_EQ(result->shards_failed, 0);
}

TEST_F(FanOutTest, FailFastReturnsTheFirstFailureInSlotOrder) {
  Add();
  Add().status = Status::Unavailable("slot one");
  Add().status = Status::Internal("slot two");
  for (int run = 0; run < 20; ++run) {
    const auto result = RunOne(Query::Single(0, 3));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(result.status().message(), "slot one");
  }
  EXPECT_EQ(fakes_[1].attempts.load(), 20);  // no retries under fail-fast

  // In a batch the failing query is named.
  const std::vector<Query> batch = {Query::Single(0, 3), Query::Single(1, 3)};
  const auto batched = Run(batch, {});
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().message(), "query 0: slot one");
}

TEST_F(FanOutTest, RetryMakesExactlyOnePlusMaxRetriesAttempts) {
  Add();
  Add().status = Status::Unavailable("down");
  const auto result = RunOne(Query::Single(0, 3),
                             Policy(ShardFailureMode::kRetry, /*max_retries=*/3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fakes_[0].attempts.load(), 1);
  EXPECT_EQ(fakes_[1].attempts.load(), 4);
  EXPECT_EQ(report_.failures.value(), 4u);
  EXPECT_EQ(report_.retries.value(), 3u);
}

TEST_F(FanOutTest, InvalidArgumentIsNeverRetriedOrDegraded) {
  Add();
  Add().status = Status::InvalidArgument("bad query");
  const auto result = RunOne(Query::Single(0, 3),
                             Policy(ShardFailureMode::kDegrade, 5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fakes_[1].attempts.load(), 1);
  EXPECT_EQ(report_.retries.value(), 0u);
  EXPECT_EQ(report_.degraded.value(), 0u);
}

TEST_F(FanOutTest, RetrySleepNeverPassesTheDeadline) {
  Add().status = Status::Unavailable("down");
  ShardFailurePolicy policy = Policy(ShardFailureMode::kRetry, 5);
  policy.initial_backoff = std::chrono::seconds(2);
  policy.max_backoff = std::chrono::seconds(4);
  Query query = Query::Single(0, 3);
  query.deadline = Clock::now() + std::chrono::milliseconds(30);
  const auto start = Clock::now();
  const auto result = RunOne(query, policy);
  const auto elapsed = Clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // One sleep, cut to the 30ms budget, then a second attempt that finds
  // the budget gone — never the 2s backoff.
  EXPECT_EQ(fakes_[0].attempts.load(), 2);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST_F(FanOutTest, ExpiredBudgetReturnsDeadlineExceededWithoutRetrying) {
  Add().status = Status::Unavailable("down");
  Query query = Query::Single(0, 3);
  query.deadline = Clock::now() - std::chrono::milliseconds(1);
  const auto result = RunOne(query, Policy(ShardFailureMode::kDegrade, 3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("down"), std::string::npos);
  EXPECT_EQ(fakes_[0].attempts.load(), 1);
  EXPECT_EQ(report_.retries.value(), 0u);
}

TEST_F(FanOutTest, DegradeCountsShardUnitsAndEnforcesMinShardsOk) {
  Add(/*weight=*/2).status = Status::Unavailable("worker gone");
  Add(/*weight=*/1).top = {{4, 0.5}};
  // A slot that degraded on its own folds its accounting through.
  FakeSlot& partial = Add(/*weight=*/3);
  partial.top = {{9, 0.25}};

  ShardFailurePolicy policy = Policy(ShardFailureMode::kDegrade, 0);
  // The third slot reports 2 of its 3 shards ok.
  const SlotSearch search = [this](const Query&, std::size_t s, int,
                                   SearchResult* out) {
    if (!fakes_[s].status.ok()) return fakes_[s].status;
    out->top = fakes_[s].top;
    if (s == 2) {
      out->shards_ok = 2;
      out->shards_failed = 1;
    }
    return Status::Ok();
  };
  std::vector<FanOutSlot> slots;
  for (const FakeSlot& fake : fakes_) slots.push_back(fake.slot);
  const Query query = Query::Single(0, 5);

  auto result = FanOut({&query, 1}, slots, policy, pool_, search, report_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->front().shards_ok, 1 + 2);
  EXPECT_EQ(result->front().shards_failed, 2 + 1);
  ASSERT_EQ(result->front().top.size(), 2u);
  EXPECT_EQ(result->front().top[0].node, 4);
  EXPECT_EQ(report_.degraded.value(), 1u);

  policy.min_shards_ok = 4;
  result = FanOut({&query, 1}, slots, policy, pool_, search, report_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.status().message(),
            "degraded below min_shards_ok (3/6 shards ok): worker gone");
}

TEST_F(FanOutTest, SkipsABoundBelowThetaButNotOneEqualToIt) {
  // Slot 0 owns the source and finds θ = 0.5 for k = 1.
  FakeSlot& source = Add();
  source.slot.owned_begin = 0;
  source.slot.owned_end = 10;
  source.top = {{3, 0.5}};
  FakeSlot& below = Add();
  below.slot.owned_begin = 10;
  below.slot.owned_end = 20;
  below.slot.score_bound = 0.4999;
  FakeSlot& equal = Add();
  equal.slot.owned_begin = 20;
  equal.slot.owned_end = 30;
  equal.slot.score_bound = 0.5;  // a tie with a smaller id could still win
  equal.top = {{21, 0.5}};

  const auto result = RunOne(Query::Single(3, 1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(fakes_[0].attempts.load(), 1);
  EXPECT_EQ(fakes_[1].attempts.load(), 0);
  EXPECT_EQ(fakes_[2].attempts.load(), 1);
  EXPECT_EQ(report_.skipped.value(), 1u);
  // A skipped slot counts as a surviving shard that contributed nothing.
  EXPECT_EQ(result->shards_ok, 3);
  ASSERT_EQ(result->top.size(), 1u);
  EXPECT_EQ(result->top[0].node, 3);

  // θ stays 0 until k candidates exist: at k = 2 nothing is skipped.
  const auto wide = RunOne(Query::Single(3, 2));
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(fakes_[1].attempts.load(), 1);
  EXPECT_EQ(report_.skipped.value(), 1u);
}

TEST_F(FanOutTest, InfiniteBoundsNeverSkip) {
  // Remote-style slots: no owned range, no bound. Nothing is mandatory and
  // nothing is skipped, however high the scores.
  Add().top = {{1, 0.99}};
  Add().top = {{2, 1e-9}};
  // An owning slot with an infinite bound is searched after θ is known
  // and still never skipped.
  FakeSlot& owner = Add();
  owner.slot.owned_begin = 0;
  owner.slot.owned_end = 10;
  owner.top = {{5, 0.95}};
  const auto result = RunOne(Query::Single(5, 1));
  ASSERT_TRUE(result.ok()) << result.status();
  for (const FakeSlot& fake : fakes_) EXPECT_EQ(fake.attempts.load(), 1);
  EXPECT_EQ(report_.skipped.value(), 0u);
  ASSERT_EQ(result->top.size(), 1u);
  EXPECT_EQ(result->top[0].node, 1);
}

}  // namespace
}  // namespace kdash::serving
