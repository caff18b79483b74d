#include "serving/fan_out.h"

#include <algorithm>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/top_k.h"
#include "obs/trace.h"

namespace kdash::serving {

Status ValidateFailurePolicy(const ShardFailurePolicy& policy) {
  if (policy.max_retries < 0) {
    return Status::InvalidArgument("failure_policy.max_retries must be >= 0");
  }
  if (policy.min_shards_ok < 1) {
    return Status::InvalidArgument("failure_policy.min_shards_ok must be >= 1");
  }
  return Status::Ok();
}

namespace {

// One slot's attempts at one query under the policy: retries with bounded
// exponential backoff when the policy says so, the last failure otherwise.
Status SearchWithRetry(const Query& query, std::size_t s, const FanOutSlot& slot,
                       const ShardFailurePolicy& policy,
                       const SlotSearch& search, FanOutReport& report,
                       SearchResult* out) {
  const bool retryable_mode = policy.mode != ShardFailureMode::kFailFast;
  auto backoff = policy.initial_backoff;
  for (int attempt = 0;; ++attempt) {
    const Status status = search(query, s, attempt, out);
    if (status.ok()) return status;
    report.failures.Add();
    // An invalid query fails identically on every slot and on every
    // attempt — retrying or degrading would only mask the caller's bug.
    if (!retryable_mode || status.code() == StatusCode::kInvalidArgument ||
        attempt >= policy.max_retries) {
      return status;
    }
    // A retry the caller cannot wait for is a late error: fail fast once
    // the budget is gone, and never sleep past it.
    auto sleep = backoff;
    if (query.deadline != std::chrono::steady_clock::time_point::max()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(
              query.deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded(
            "deadline expired before slot " + std::to_string(slot.id) +
            " retry: " + status.message());
      }
      sleep = std::min(sleep, remaining);
    }
    report.retries.Add();
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

}  // namespace

Result<std::vector<SearchResult>> FanOut(std::span<const Query> queries,
                                         std::span<const FanOutSlot> slots,
                                         const ShardFailurePolicy& policy,
                                         ThreadPool& pool,
                                         const SlotSearch& search,
                                         FanOutReport& report) {
  const std::size_t num_queries = queries.size();
  const std::size_t slot_count = slots.size();

  // Flat (query × slot) pairs: answers land in fixed positions, so the
  // merge below is deterministic regardless of which worker ran what. A
  // skipped pair keeps its default Ok status and empty partial, so the
  // merge counts it as a surviving slot that contributed no candidates —
  // exactly what the bound proves.
  std::vector<SearchResult> partials(num_queries * slot_count);
  std::vector<Status> statuses(num_queries * slot_count);
  const auto run = [&](const std::vector<std::size_t>& pairs) {
    if (pairs.empty()) return;
    pool.ParallelFor(
        0, static_cast<Index>(pairs.size()), /*grain=*/1,
        [&](Index begin, Index end, int) {
          for (Index t = begin; t < end; ++t) {
            const std::size_t i = pairs[static_cast<std::size_t>(t)];
            const std::size_t q = i / slot_count;
            const std::size_t s = i % slot_count;
            statuses[i] = SearchWithRetry(queries[q], s, slots[s], policy,
                                          search, report, &partials[i]);
          }
        });
  };

  // Phase A: the slots that own a source. An out-of-range source is a
  // caller bug every slot rejects identically; phase B reports it.
  std::vector<char> mandatory(num_queries * slot_count, 0);
  std::vector<std::size_t> phase_a;
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (const NodeId source : queries[q].sources) {
      for (std::size_t s = 0; s < slot_count; ++s) {
        const std::size_t i = q * slot_count + s;
        if (source >= slots[s].owned_begin && source < slots[s].owned_end &&
            !mandatory[i]) {
          mandatory[i] = 1;
          phase_a.push_back(i);
        }
      }
    }
  }
  run(phase_a);

  // Phase B: every other slot whose bound could still beat θ.
  std::vector<std::size_t> phase_b;
  phase_b.reserve(num_queries * slot_count - phase_a.size());
  for (std::size_t q = 0; q < num_queries; ++q) {
    // θ stays 0 until k candidates exist — a partial heap never justifies
    // a skip — and k == 0 is invalid, left for phase B to report. Under
    // kDegrade a failed mandatory slot only lowers θ, which is safe.
    Scalar theta = 0.0;
    const std::size_t row = q * slot_count;
    if (queries[q].k > 0) {
      TopKHeap seed(queries[q].k);
      for (std::size_t s = 0; s < slot_count; ++s) {
        if (!mandatory[row + s] || !statuses[row + s].ok()) continue;
        for (const ScoredNode& entry : partials[row + s].top) {
          seed.Push(entry.node, entry.score);
        }
      }
      theta = seed.Threshold();
    }
    for (std::size_t s = 0; s < slot_count; ++s) {
      if (mandatory[row + s]) continue;
      if (theta > 0.0 && slots[s].score_bound < theta) {
        report.skipped.Add();
        obs::ScopedSpan span(queries[q].trace.get(), report.skip_span,
                             slots[s].id);
      } else {
        phase_b.push_back(row + s);
      }
    }
  }
  run(phase_b);

  const auto fail_query = [&](std::size_t q, const Status& status) -> Status {
    if (num_queries == 1) return status;
    return Status(status.code(),
                  "query " + std::to_string(q) + ": " + status.message());
  };

  const bool degrade = policy.mode == ShardFailureMode::kDegrade;
  std::vector<SearchResult> results(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    const std::size_t row = q * slot_count;
    int ok_shards = 0;
    int failed_shards = 0;
    const Status* first_failure = nullptr;
    bool invalid = false;
    for (std::size_t s = 0; s < slot_count; ++s) {
      const Status& status = statuses[row + s];
      if (!status.ok()) {
        failed_shards += slots[s].weight;
        if (first_failure == nullptr) first_failure = &status;
        invalid |= status.code() == StatusCode::kInvalidArgument;
      } else if (partials[row + s].shards_failed > 0) {
        // A slot that serves several shards can degrade on its own; fold
        // its accounting through instead of assuming all-or-nothing.
        ok_shards += partials[row + s].shards_ok;
        failed_shards += partials[row + s].shards_failed;
      } else {
        ok_shards += slots[s].weight;
      }
    }
    if (failed_shards > 0) {
      // first_failure is null when every slot answered but one degraded
      // itself: its own policy already sanctioned the partial answer.
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
      report.degraded.Add();
    }

    obs::ScopedSpan merge_span(queries[q].trace.get(), report.merge_span);
    WallTimer merge_timer;
    TopKHeap heap(queries[q].k);
    core::SearchStats merged;
    for (std::size_t s = 0; s < slot_count; ++s) {
      if (!statuses[row + s].ok()) continue;
      const SearchResult& partial = partials[row + s];
      for (const ScoredNode& entry : partial.top) {
        heap.Push(entry.node, entry.score);
      }
      merged.nodes_visited += partial.stats.nodes_visited;
      merged.proximity_computations += partial.stats.proximity_computations;
      merged.terminated_early |= partial.stats.terminated_early;
      merged.tree_size += partial.stats.tree_size;
    }
    results[q].top = heap.Sorted();
    results[q].stats = merged;
    results[q].shards_ok = ok_shards;
    results[q].shards_failed = failed_shards;
    if (report.merge_us != nullptr) {
      report.merge_us->Record(static_cast<std::uint64_t>(merge_timer.Micros()));
    }
  }
  return results;
}

}  // namespace kdash::serving
