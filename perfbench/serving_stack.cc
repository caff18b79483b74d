// The serving stacks the workloads run on, configured through public
// options only.
#include <ostream>
#include <streambuf>
#include <string>

#include "common/check.h"
#include "perfbench.h"

namespace kdash::perfbench {
namespace {

core::KDashOptions IndexOptions(const ThreadBudget& budget) {
  core::KDashOptions options;
  options.num_threads = budget.build_threads;
  return options;
}

tools::StreamConfig WorkerStreamConfig(const Engine& shard) {
  tools::StreamConfig config;
  config.pong_shards = 1;
  config.pong_nodes = shard.num_nodes();
  return config;
}

// An ostream that only counts the bytes written to it.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize count) override {
    bytes_ += static_cast<std::uint64_t>(count);
    return count;
  }

 private:
  std::uint64_t bytes_ = 0;
};

std::uint64_t SavedBytes(const Engine& engine) {
  CountingBuf buf;
  std::ostream out(&buf);
  KDASH_CHECK(engine.Save(out).ok());
  return buf.bytes();
}

// A worker's backend answers its batch on the scheduler thread, one
// Engine::Search at a time: a 1-thread search pool. The shard engines come
// from Engine::FromIndex, whose SearchBatch would borrow the process-wide
// shared pool instead. That pool is sized by the host, not the budget, and
// both workers would queue on it, so a routed query's two shard searches
// could not run side by side as they do in two kdash_worker processes.
Result<std::vector<SearchResult>> SearchOneByOne(
    const Engine& shard, std::span<const Query> batch) {
  std::vector<SearchResult> results;
  results.reserve(batch.size());
  for (const Query& query : batch) {
    auto result = shard.Search(query);
    if (!result.ok()) return result.status();
    results.push_back(std::move(*result));
  }
  return results;
}

}  // namespace

serving::BatchSchedulerOptions ServingSchedulerOptions() {
  serving::BatchSchedulerOptions options;
  options.cache_entries = 1024;
  return options;
}

Worker::Worker(const Engine& shard)
    : scheduler_(
          [&shard](std::span<const Query> batch) {
            return SearchOneByOne(shard, batch);
          },
          ServingSchedulerOptions()),
      server_(scheduler_, WorkerStreamConfig(shard)) {
  KDASH_CHECK(server_.Listen(0).ok());
  thread_ = std::thread([this] { server_.Serve(); });
}

Worker::~Worker() {
  server_.Stop();
  thread_.join();
  scheduler_.Shutdown();
}

void BuildStack(Workload workload, const graph::Graph& graph,
                const ThreadBudget& budget, Stack* stack) {
  switch (workload) {
    case Workload::kDeep:
    case Workload::kHot: {
      EngineOptions options;
      options.index = IndexOptions(budget);
      options.num_search_threads = budget.search_threads;
      auto engine = Engine::Build(graph, options);
      KDASH_CHECK(engine.ok()) << engine.status();
      stack->engine.emplace(std::move(*engine));
      return;
    }
    case Workload::kSharded:
    case Workload::kRouted: {
      serving::ShardedEngineOptions options;
      options.num_shards = 2;
      options.index = IndexOptions(budget);
      options.num_search_threads = budget.search_threads;
      auto sharded = serving::ShardedEngine::Build(graph, options);
      KDASH_CHECK(sharded.ok()) << sharded.status();
      stack->sharded.emplace(std::move(*sharded));
      if (workload == Workload::kRouted) ConnectRouter(budget, stack);
      return;
    }
  }
}

void ConnectRouter(const ThreadBudget& budget, Stack* stack) {
  std::string spec;
  for (int s = 0; s < stack->sharded->num_shards(); ++s) {
    stack->workers.push_back(
        std::make_unique<Worker>(stack->sharded->shard(s)));
    if (s > 0) spec += ',';
    spec += "127.0.0.1:" + std::to_string(stack->workers.back()->port());
  }
  serving::RouterOptions router_options;
  router_options.num_io_threads = budget.io_threads;
  auto router = serving::Router::Connect(spec, router_options);
  KDASH_CHECK(router.ok()) << router.status();
  stack->router = std::move(*router);
}

Engine BuildReferenceEngine(const graph::Graph& graph,
                            const ThreadBudget& budget) {
  EngineOptions options;
  options.index = IndexOptions(budget);
  options.num_search_threads = 1;
  auto engine = Engine::Build(graph, options);
  KDASH_CHECK(engine.ok()) << engine.status();
  return std::move(*engine);
}

std::uint64_t ServedIndexBytes(const Stack& stack) {
  if (stack.engine.has_value()) return SavedBytes(*stack.engine);
  std::uint64_t bytes = 0;
  for (int s = 0; s < stack.sharded->num_shards(); ++s) {
    bytes += SavedBytes(stack.sharded->shard(s));
  }
  return bytes;
}

}  // namespace kdash::perfbench
