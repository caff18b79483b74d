// BatchScheduler semantics: dispatch is work-conserving (requests queued
// behind an in-flight batch form the next one), coalescing never changes
// answers, deadlines surface kDeadlineExceeded, shutdown drains every
// accepted future, and post-shutdown submissions are rejected with
// kUnavailable. Batch composition is pinned with test::FirstCallGate, not
// with timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serving/batch_scheduler.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

using std::chrono::milliseconds;

Engine BuildTestEngine() {
  auto engine = Engine::Build(test::RandomDirectedGraph(120, 700, 31));
  KDASH_CHECK(engine.ok());
  return std::move(*engine);
}

BatchScheduler::Backend EngineBackend(const Engine& engine) {
  return [&engine](std::span<const Query> queries) {
    return engine.SearchBatch(queries);
  };
}

TEST(BatchSchedulerTest, SingleSubmitMatchesDirectSearch) {
  const Engine engine = BuildTestEngine();
  BatchScheduler scheduler(EngineBackend(engine));

  const Query query = Query::Single(3, 10);
  auto future = scheduler.Submit(query);
  const auto via_scheduler = future.get();
  const auto direct = engine.Search(query);
  ASSERT_TRUE(via_scheduler.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_scheduler->top.size(), direct->top.size());
  for (std::size_t r = 0; r < direct->top.size(); ++r) {
    EXPECT_EQ(via_scheduler->top[r].node, direct->top[r].node);
    EXPECT_EQ(via_scheduler->top[r].score, direct->top[r].score);
  }
}

TEST(BatchSchedulerTest, QueuedBehindInFlightBatchDispatchTogether) {
  const Engine engine = BuildTestEngine();
  test::FirstCallGate gate;
  std::vector<std::size_t> batch_sizes;  // written by the scheduler thread
  BatchSchedulerOptions options;
  options.max_batch_size = 32;
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) {
        batch_sizes.push_back(queries.size());
        gate.Pass();
        return engine.SearchBatch(queries);
      },
      options);

  auto occupant = scheduler.Submit(Query::Single(0, 5));
  gate.WaitEntered();
  constexpr std::size_t kQueued = 12;
  std::vector<std::future<Result<SearchResult>>> futures;
  for (std::size_t q = 1; q <= kQueued; ++q) {
    futures.push_back(
        scheduler.Submit(Query::Single(static_cast<NodeId>(q), 5)));
  }
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.batches_dispatched, 2u);
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, kQueued}));
}

TEST(BatchSchedulerTest, ConcurrentSubmittersMatchSequentialResults) {
  const Engine engine = BuildTestEngine();
  test::FirstCallGate gate;
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) {
        gate.Pass();
        return engine.SearchBatch(queries);
      },
      options);

  // The occupant pins the first batch until every submitter has queued its
  // whole slice, so the rest dispatch as full batches of 16.
  auto occupant = scheduler.Submit(Query::Single(0, 5));
  gate.WaitEntered();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::atomic<int> submitted{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<Result<SearchResult>>> outcomes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<Result<SearchResult>>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        Query query = Query::Single((t * kPerThread + i) % engine.num_nodes(),
                                    5 + static_cast<std::size_t>(i % 3));
        if (i % 4 == 0) query.exclude = {static_cast<NodeId>(t)};
        futures.push_back(scheduler.Submit(query));
      }
      ++submitted;
      for (auto& future : futures) {
        outcomes[static_cast<std::size_t>(t)].push_back(future.get());
      }
    });
  }
  while (submitted.load() < kThreads) std::this_thread::yield();
  gate.Release();
  for (auto& submitter : submitters) submitter.join();
  ASSERT_TRUE(occupant.get().ok());

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Query query = Query::Single((t * kPerThread + i) % engine.num_nodes(),
                                  5 + static_cast<std::size_t>(i % 3));
      if (i % 4 == 0) query.exclude = {static_cast<NodeId>(t)};
      const auto expected = engine.Search(query);
      const auto& got = outcomes[static_cast<std::size_t>(t)]
                                [static_cast<std::size_t>(i)];
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->top.size(), expected->top.size());
      for (std::size_t r = 0; r < expected->top.size(); ++r) {
        EXPECT_EQ(got->top[r].node, expected->top[r].node);
        EXPECT_EQ(got->top[r].score, expected->top[r].score);
      }
    }
  }

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread + 1);
  EXPECT_EQ(stats.served, kThreads * kPerThread + 1);
  EXPECT_EQ(stats.batches_dispatched, 1u + kThreads * kPerThread / 16);
}

TEST(BatchSchedulerTest, ExpiredRequestsGetDeadlineExceeded) {
  // A backend slow enough that a whole batch outlives the next request's
  // deadline; the expired request must never reach it.
  std::atomic<int> backend_calls{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 1;  // each request dispatches alone
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> Result<std::vector<SearchResult>> {
        ++backend_calls;
        std::this_thread::sleep_for(milliseconds(100));
        return std::vector<SearchResult>(queries.size());
      },
      options);

  // First request occupies the scheduler; the second expires while queued.
  auto slow = scheduler.Submit(Query::Single(0, 1));
  auto expired = scheduler.Submit(Query::Single(1, 1), milliseconds(5));
  ASSERT_TRUE(slow.get().ok());
  const auto result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend_calls.load(), 1);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST(BatchSchedulerTest, ShutdownDrainsAcceptedFutures) {
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 8;
  BatchScheduler scheduler(EngineBackend(engine), options);

  std::vector<std::future<Result<SearchResult>>> futures;
  for (NodeId q = 0; q < 30; ++q) {
    futures.push_back(scheduler.Submit(Query::Single(q, 5)));
  }
  scheduler.Shutdown();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready)
        << "shutdown returned before draining";
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(scheduler.stats().served, 30u);
}

TEST(BatchSchedulerTest, SubmitAfterShutdownIsUnavailable) {
  const Engine engine = BuildTestEngine();
  BatchScheduler scheduler(EngineBackend(engine));
  scheduler.Shutdown();
  auto future = scheduler.Submit(Query::Single(0, 5));
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(BatchSchedulerTest, IdenticalRequestsCoalesceToOneComputation) {
  const Engine engine = BuildTestEngine();
  test::FirstCallGate gate;
  std::atomic<std::uint64_t> backend_queries{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 32;
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) {
        gate.Pass();
        backend_queries += queries.size();
        return engine.SearchBatch(queries);
      },
      options);

  // Every hot submission queues behind the pinned occupant: one batch.
  auto occupant = scheduler.Submit(Query::Single(0, 10));
  gate.WaitEntered();
  const Query hot = Query::Single(5, 10);
  std::vector<std::future<Result<SearchResult>>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(scheduler.Submit(hot));
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());

  const auto direct = engine.Search(hot);
  ASSERT_TRUE(direct.ok());
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->top.size(), direct->top.size());
    for (std::size_t r = 0; r < direct->top.size(); ++r) {
      EXPECT_EQ(result->top[r].node, direct->top[r].node);
      EXPECT_EQ(result->top[r].score, direct->top[r].score);
    }
  }

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.served, 21u);
  // The twenty duplicates shared one computation; the other nineteen are
  // accounted as coalesced.
  EXPECT_EQ(backend_queries.load(), 2u);  // the occupant and the hot query
  EXPECT_EQ(stats.coalesced, 19u);
}

// ---- stress: degenerate deadlines, back-to-back dispatch, shutdown races.

TEST(BatchSchedulerStressTest, AlreadyExpiredDeadlineNeverReachesBackend) {
  // A deadline of 1ns is expired on arrival for all practical purposes; the
  // request must resolve kDeadlineExceeded without touching the backend.
  // The first request holds the scheduler inside a gated backend so the
  // expired one cannot sneak into an earlier batch.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<std::uint64_t> backend_queries{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 1;
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> Result<std::vector<SearchResult>> {
        backend_queries += queries.size();
        gate.wait();
        return std::vector<SearchResult>(queries.size());
      },
      options);

  auto occupant = scheduler.Submit(Query::Single(0, 1));
  auto expired = scheduler.Submit(Query::Single(1, 1),
                                  std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(milliseconds(5));
  release.set_value();

  ASSERT_TRUE(occupant.get().ok());
  const auto result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend_queries.load(), 1u);  // only the occupant
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST(BatchSchedulerStressTest, BackToBackDispatchNeverLosesAWakeup) {
  // Small batches under concurrent submitters: the scheduler re-dispatches
  // the moment a batch returns and sleeps only on an empty queue, so a
  // submission that lands while it is busy must never be stranded (the
  // wake-up is only sent when the queue turns non-empty).
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  BatchScheduler scheduler(EngineBackend(engine), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> submitters;
  std::atomic<std::uint64_t> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<Result<SearchResult>>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        futures.push_back(scheduler.Submit(
            Query::Single((t * kPerThread + i) % engine.num_nodes(), 3)));
      }
      for (auto& future : futures) {
        if (future.get().ok()) ++ok_count;
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.served, kThreads * kPerThread);
  EXPECT_EQ(stats.deadline_expired, 0u);
}

TEST(BatchSchedulerStressTest, ShutdownRacingSubmitResolvesEveryFuture) {
  // Submitters hammer the scheduler while Shutdown lands mid-stream (twice,
  // concurrently — it is documented idempotent). Every future must resolve
  // — no hangs — to either a served result or kUnavailable, and the stats
  // must account for every submission exactly once.
  const Engine engine = BuildTestEngine();
  for (int round = 0; round < 4; ++round) {
    BatchSchedulerOptions options;
    options.max_batch_size = 8;
    BatchScheduler scheduler(EngineBackend(engine), options);

    constexpr int kThreads = 6;
    constexpr int kPerThread = 40;
    std::atomic<std::uint64_t> ok_count{0};
    std::atomic<std::uint64_t> unavailable_count{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::future<Result<SearchResult>>> futures;
        for (int i = 0; i < kPerThread; ++i) {
          futures.push_back(scheduler.Submit(
              Query::Single((t * kPerThread + i) % engine.num_nodes(), 3)));
        }
        for (auto& future : futures) {
          const auto result = future.get();
          if (result.ok()) {
            ++ok_count;
          } else {
            ASSERT_EQ(result.status().code(), StatusCode::kUnavailable)
                << result.status();
            ++unavailable_count;
          }
        }
      });
    }
    std::this_thread::sleep_for(milliseconds(round));  // vary the race window
    std::thread other_shutdown([&] { scheduler.Shutdown(); });
    scheduler.Shutdown();
    other_shutdown.join();
    for (auto& submitter : submitters) submitter.join();

    EXPECT_EQ(ok_count.load() + unavailable_count.load(),
              kThreads * kPerThread)
        << "round " << round;
    const auto stats = scheduler.stats();
    // Accepted requests are drained and served; rejected ones are counted.
    EXPECT_EQ(stats.served, ok_count.load()) << "round " << round;
    EXPECT_EQ(stats.rejected, unavailable_count.load()) << "round " << round;
    EXPECT_EQ(stats.submitted + stats.rejected, kThreads * kPerThread)
        << "round " << round;
    EXPECT_EQ(stats.deadline_expired, 0u) << "round " << round;
  }
}

TEST(BatchSchedulerTest, BadRequestDoesNotPoisonItsBatch) {
  const Engine engine = BuildTestEngine();
  test::FirstCallGate gate;
  std::vector<std::size_t> batch_sizes;  // written by the scheduler thread
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) {
        batch_sizes.push_back(queries.size());
        gate.Pass();
        return engine.SearchBatch(queries);
      },
      options);

  // All three land in one batch behind the pinned occupant.
  auto occupant = scheduler.Submit(Query::Single(0, 5));
  gate.WaitEntered();
  auto good1 = scheduler.Submit(Query::Single(1, 5));
  auto bad = scheduler.Submit(Query::Single(engine.num_nodes() + 7, 5));
  auto good2 = scheduler.Submit(Query::Single(2, 5));
  gate.Release();

  ASSERT_TRUE(occupant.get().ok());
  EXPECT_TRUE(good1.get().ok());
  EXPECT_TRUE(good2.get().ok());
  const auto bad_result = bad.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
  // The whole-batch call failed, then each request ran alone.
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, 3, 1, 1, 1}));
}

}  // namespace
}  // namespace kdash::serving
