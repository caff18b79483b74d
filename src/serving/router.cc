#include "serving/router.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/timer.h"
#include "common/top_k.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/wire.h"

namespace kdash::serving {

struct Router::RouterMetrics {
  obs::Counter* degraded_queries =
      &obs::MetricRegistry::Global().GetCounter("router.degraded_queries");
  obs::Counter* failovers =
      &obs::MetricRegistry::Global().GetCounter("router.failovers");
  obs::Counter* health_probes =
      &obs::MetricRegistry::Global().GetCounter("router.health_probes");
  obs::Counter* hedge_wins =
      &obs::MetricRegistry::Global().GetCounter("router.hedge_wins");
  obs::Counter* hedges =
      &obs::MetricRegistry::Global().GetCounter("router.hedges");
  // The live round-trip distribution that also drives the adaptive hedge
  // delay (its p99).
  obs::Histogram* remote_us =
      &obs::MetricRegistry::Global().GetHistogram("router.remote_us");
  // Shared with ShardedEngine on purpose: a merge is a merge, local or
  // distributed, and one histogram keeps the dashboards uniform.
  obs::Histogram* merge_us =
      &obs::MetricRegistry::Global().GetHistogram("serving.merge_us");
};

namespace {

Result<RemoteEndpoint> ParseEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument("worker endpoint \"" + text +
                                   "\" is not host:port");
  }
  char* end = nullptr;
  const long port = std::strtol(text.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port < 1 || port > 65535) {
    return Status::InvalidArgument("worker endpoint \"" + text +
                                   "\" has a bad port");
  }
  RemoteEndpoint endpoint;
  endpoint.host = text.substr(0, colon);
  endpoint.port = static_cast<int>(port);
  return endpoint;
}

std::vector<std::string> SplitOn(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t at = text.find(separator, begin);
    parts.push_back(text.substr(begin, at - begin));
    if (at == std::string::npos) return parts;
    begin = at + 1;
  }
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      metrics_(std::make_unique<RouterMetrics>()),
      policy_(options_.failure_policy) {}

Result<std::unique_ptr<Router>> Router::Connect(const std::string& spec,
                                                RouterOptions options) {
  if (options.failure_policy.max_retries < 0) {
    return Status::InvalidArgument("failure_policy.max_retries must be >= 0");
  }
  if (options.failure_policy.min_shards_ok < 1) {
    return Status::InvalidArgument("failure_policy.min_shards_ok must be >= 1");
  }
  if (spec.empty()) {
    return Status::InvalidArgument("empty worker spec");
  }

  // kdash-lint: allow(naked-new) private constructor; ownership lands in
  // the unique_ptr on the same line.
  std::unique_ptr<Router> router(new Router(std::move(options)));
  for (const std::string& slot_spec : SplitOn(spec, ',')) {
    std::vector<std::unique_ptr<RemoteWorker>> replicas;
    for (const std::string& replica_spec : SplitOn(slot_spec, '+')) {
      KDASH_ASSIGN_OR_RETURN(RemoteEndpoint endpoint,
                             ParseEndpoint(replica_spec));
      replicas.push_back(std::make_unique<RemoteWorker>(
          std::move(endpoint), router->options_.remote));
    }
    router->slots_.push_back(std::move(replicas));
  }

  const int default_io_threads = std::clamp(2 * router->num_slots(), 2, 32);
  router->io_pool_ = std::make_unique<ThreadPool>(
      router->options_.num_io_threads > 0 ? router->options_.num_io_threads
                                          : default_io_threads);

  // One best-effort probe round: learn replica shard weights (the pong
  // handshake) and initial health before the first query, so a topology
  // with a dead worker degrades on query one instead of discovering the
  // corpse mid-merge. Failures are expected and tolerated.
  std::vector<RemoteWorker*> all;
  for (auto& slot : router->slots_) {
    for (auto& replica : slot) all.push_back(replica.get());
  }
  router->io_pool_->ParallelFor(
      0, static_cast<Index>(all.size()), /*grain=*/1,
      [&](Index begin, Index end, int) {
        for (Index i = begin; i < end; ++i) {
          all[static_cast<std::size_t>(i)]->Probe().IgnoreError();
        }
      });

  if (router->options_.probe_period.count() > 0) {
    Router* self = router.get();
    router->prober_ = std::thread([self] {
      MutexLock lock(self->prober_mutex_);
      for (;;) {
        const auto wake =
            std::chrono::steady_clock::now() + self->options_.probe_period;
        while (!self->prober_stop_ &&
               self->prober_stop_changed_.WaitUntil(self->prober_mutex_,
                                                    wake) !=
                   std::cv_status::timeout) {
        }
        if (self->prober_stop_) return;
        lock.Unlock();
        for (auto& slot : self->slots_) {
          for (auto& replica : slot) {
            self->metrics_->health_probes->Add();
            replica->Probe().IgnoreError();
          }
        }
        lock.Lock();
      }
    });
  }
  return router;
}

Router::~Router() {
  if (prober_.joinable()) {
    {
      MutexLock lock(prober_mutex_);
      prober_stop_ = true;
    }
    prober_stop_changed_.NotifyAll();
    prober_.join();
  }
}

ShardFailurePolicy Router::failure_policy() const {
  MutexLock lock(policy_mutex_);
  return policy_;
}

void Router::set_failure_policy(const ShardFailurePolicy& policy) {
  MutexLock lock(policy_mutex_);
  policy_ = policy;
}

int Router::SlotWeight(std::size_t slot) const {
  // Replicas serve identical shards; trust the largest advertisement (a
  // replica that never answered a pong still defaults to 1).
  int weight = 1;
  for (const auto& replica : slots_[slot]) {
    weight = std::max(weight, replica->shard_weight());
  }
  return weight;
}

int Router::shards_total() const {
  int total = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) total += SlotWeight(s);
  return total;
}

bool Router::slot_healthy(int slot) const {
  for (const auto& replica : slots_[static_cast<std::size_t>(slot)]) {
    if (replica->healthy()) return true;
  }
  return false;
}

std::chrono::microseconds Router::HedgeDelay() const {
  if (options_.hedge_delay.count() > 0) return options_.hedge_delay;
  const auto p99 =
      std::chrono::microseconds(metrics_->remote_us->Quantile(0.99));
  return std::clamp(p99, options_.hedge_min_delay, options_.hedge_max_delay);
}

Status Router::Attempt(RemoteWorker* primary, RemoteWorker* hedge,
                       const std::string& line, const Query& query,
                       std::size_t slot, SearchResult* out) const {
  obs::ScopedSpan span(query.trace.get(), "router.remote_call",
                       static_cast<int>(slot));
  WallTimer timer;
  // One wait budget for the whole attempt: the query's deadline, or the
  // transport io_timeout when that is earlier (or the query has none).
  const auto deadline =
      std::min(query.deadline,
               std::chrono::steady_clock::now() + options_.remote.io_timeout);

  KDASH_ASSIGN_OR_RETURN(RemoteWorker::Call call, primary->Begin(line));

  RemoteWorker* winner = primary;
  Result<std::string> response = Status::Internal("unreachable");
  bool resolved = false;
  if (options_.hedging && hedge != nullptr) {
    // Give the primary the hedge delay; re-issue to the replica only when
    // it misses it, then take whichever answers first.
    const auto hedge_at = std::chrono::steady_clock::now() + HedgeDelay();
    int ready = 0;
    for (;;) {
      pollfd pfd{call.fd(), POLLIN, 0};
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::min(hedge_at, deadline) - std::chrono::steady_clock::now());
      ready = ::poll(&pfd, 1,
                     wait.count() > 0 ? static_cast<int>(wait.count()) : 0);
      if (ready < 0 && errno == EINTR) continue;
      break;
    }
    if (ready == 0 && std::chrono::steady_clock::now() < deadline) {
      metrics_->hedges->Add();
      obs::ScopedSpan hedge_span(query.trace.get(), "router.hedge",
                                 static_cast<int>(slot));
      Result<RemoteWorker::Call> hedged = hedge->Begin(line);
      if (hedged.ok()) {
        for (;;) {
          pollfd fds[2] = {{call.fd(), POLLIN, 0}, {hedged->fd(), POLLIN, 0}};
          const auto wait =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now());
          const int both =
              ::poll(fds, 2,
                     wait.count() > 0 ? static_cast<int>(wait.count()) : 0);
          if (both < 0 && errno == EINTR) continue;
          if (both == 0) {
            // Neither made the deadline; Finish on the primary surfaces
            // the deadline status and handles health accounting.
            hedge->Abandon(std::move(*hedged));
            break;
          }
          if (both < 0) {
            hedge->Abandon(std::move(*hedged));
            break;
          }
          if (fds[0].revents != 0) {
            hedge->Abandon(std::move(*hedged));
            response = primary->Finish(std::move(call), deadline);
            resolved = true;
            break;
          }
          metrics_->hedge_wins->Add();
          winner = hedge;
          primary->Abandon(std::move(call));
          response = hedge->Finish(std::move(*hedged), deadline);
          resolved = true;
          break;
        }
      }
    }
  }
  if (!resolved) response = primary->Finish(std::move(call), deadline);
  if (!response.ok()) return response.status();

  metrics_->remote_us->Record(static_cast<std::uint64_t>(timer.Micros()));
  KDASH_ASSIGN_OR_RETURN(wire::ParsedRecord record,
                         wire::ParseRecordLine(*response));
  switch (record.kind) {
    case wire::ParsedRecord::Kind::kError:
      // The worker answered — transport is fine, the *query* failed there
      // (validation, overload, its own deadline). Hand the canonical
      // status to the failure policy.
      return record.error;
    case wire::ParsedRecord::Kind::kPong:
      return Status::Internal(winner->endpoint().ToString() +
                              " answered a query with a pong");
    case wire::ParsedRecord::Kind::kResult:
      *out = std::move(record.result);
      return Status::Ok();
  }
  return Status::Internal("unhandled record kind");
}

Status Router::CallSlot(const Query& query, std::size_t slot,
                        const ShardFailurePolicy& policy,
                        SearchResult* out) const {
  const std::string line = wire::FormatRequestLine(query);
  const auto& replicas = slots_[slot];
  const bool retryable = policy.mode != ShardFailureMode::kFailFast;
  auto backoff = policy.initial_backoff;
  Status last = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    // Healthy-first, config-order-stable replica ordering, recomputed per
    // attempt — a mark-down between attempts reroutes the retry.
    std::vector<RemoteWorker*> ordered;
    ordered.reserve(replicas.size());
    for (const auto& replica : replicas) {
      if (replica->healthy()) ordered.push_back(replica.get());
    }
    for (const auto& replica : replicas) {
      if (!replica->healthy()) ordered.push_back(replica.get());
    }
    RemoteWorker* target =
        ordered[static_cast<std::size_t>(attempt) % ordered.size()];
    if (target != replicas.front().get()) metrics_->failovers->Add();
    RemoteWorker* hedge = nullptr;
    for (RemoteWorker* candidate : ordered) {
      if (candidate != target && candidate->healthy()) {
        hedge = candidate;
        break;
      }
    }
    const Status status = Attempt(target, hedge, line, query, slot, out);
    if (status.ok()) return status;
    last = status;
    // Mirrors the in-process SearchShard loop: caller bugs are never
    // retried, fail-fast means one attempt, and the backoff is capped by
    // the time remaining to the query's deadline — a retry the caller
    // cannot wait for is not a retry, it is a late error.
    if (!retryable || status.code() == StatusCode::kInvalidArgument ||
        attempt >= policy.max_retries) {
      return last;
    }
    if (query.deadline != std::chrono::steady_clock::time_point::max()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(
              query.deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded(
            "deadline expired before slot " + std::to_string(slot) +
            " retry: " + last.message());
      }
      if (backoff > remaining) backoff = remaining;
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

Result<std::vector<SearchResult>> Router::FanOut(
    std::span<const Query> queries) const {
  const std::size_t num_queries = queries.size();
  const std::size_t slot_count = slots_.size();
  const ShardFailurePolicy policy = failure_policy();  // one snapshot per call

  std::vector<SearchResult> partials(num_queries * slot_count);
  std::vector<Status> statuses(num_queries * slot_count);
  io_pool_->ParallelFor(
      0, static_cast<Index>(num_queries * slot_count), /*grain=*/1,
      [&](Index begin, Index end, int) {
        for (Index t = begin; t < end; ++t) {
          const auto i = static_cast<std::size_t>(t);
          const std::size_t q = i / slot_count;
          const std::size_t s = i % slot_count;
          statuses[i] = CallSlot(queries[q], s, policy, &partials[i]);
        }
      });

  const auto fail_query = [&](std::size_t q, const Status& status) -> Status {
    if (num_queries == 1) return status;
    return Status(status.code(),
                  "query " + std::to_string(q) + ": " + status.message());
  };

  // Same deterministic slot-order scan and degradation accounting as
  // ShardedEngine::FanOut, with slot weights (shards per worker) in place
  // of the implicit weight 1.
  const bool degrade = policy.mode == ShardFailureMode::kDegrade;
  std::vector<SearchResult> results(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    int ok_shards = 0;
    int failed_shards = 0;
    const Status* first_failure = nullptr;
    bool invalid = false;
    for (std::size_t s = 0; s < slot_count; ++s) {
      const Status& status = statuses[q * slot_count + s];
      if (status.ok()) {
        // A worker can itself degrade (it serves several shards and runs
        // its own policy); fold its accounting through instead of
        // assuming all-or-nothing.
        const SearchResult& partial = partials[q * slot_count + s];
        if (partial.shards_failed > 0) {
          ok_shards += partial.shards_ok;
          failed_shards += partial.shards_failed;
        } else {
          ok_shards += SlotWeight(s);
        }
      } else {
        failed_shards += SlotWeight(s);
        if (first_failure == nullptr) first_failure = &status;
        invalid |= status.code() == StatusCode::kInvalidArgument;
      }
    }
    if (failed_shards > 0) {
      // first_failure may be null when every *slot* answered but a worker
      // self-degraded; its policy already sanctioned serving partial, so
      // the router only tags and counts.
      if (first_failure != nullptr) {
        if (invalid || !degrade) return fail_query(q, *first_failure);
        if (ok_shards < policy.min_shards_ok) {
          return fail_query(
              q, Status(first_failure->code(),
                        "degraded below min_shards_ok (" +
                            std::to_string(ok_shards) + "/" +
                            std::to_string(ok_shards + failed_shards) +
                            " shards ok): " + first_failure->message()));
        }
      }
      metrics_->degraded_queries->Add();
    }

    obs::ScopedSpan merge_span(queries[q].trace.get(), "router.merge");
    WallTimer merge_timer;
    TopKHeap heap(queries[q].k);
    core::SearchStats merged;
    for (std::size_t s = 0; s < slot_count; ++s) {
      if (!statuses[q * slot_count + s].ok()) continue;
      const SearchResult& partial = partials[q * slot_count + s];
      for (const ScoredNode& entry : partial.top) {
        heap.Push(entry.node, entry.score);
      }
      merged.nodes_visited += partial.stats.nodes_visited;
      merged.proximity_computations += partial.stats.proximity_computations;
      merged.tree_size += partial.stats.tree_size;
      merged.terminated_early |= partial.stats.terminated_early;
    }
    results[q].top = heap.Sorted();
    results[q].stats = merged;
    results[q].shards_ok = ok_shards;
    results[q].shards_failed = failed_shards;
    metrics_->merge_us->Record(
        static_cast<std::uint64_t>(merge_timer.Micros()));
  }
  return results;
}

Result<SearchResult> Router::Search(const Query& query) const {
  KDASH_ASSIGN_OR_RETURN(auto results, FanOut({&query, 1}));
  return std::move(results.front());
}

Result<std::vector<SearchResult>> Router::SearchBatch(
    std::span<const Query> queries) const {
  if (queries.empty()) return std::vector<SearchResult>{};
  return FanOut(queries);
}

}  // namespace kdash::serving
