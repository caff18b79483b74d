// kdash::serving::FanOut — the one fan-out, failure policy and exact merge
// behind every multi-part search: ShardedEngine over in-process shard
// engines, Router over remote workers.
//
// A *slot* answers a query with the exact top-k among the nodes it owns:
// one shard engine, or one worker process serving one or more shards.
// FanOut runs every (query, slot) pair on a pool, applies the caller's
// ShardFailurePolicy to each pair (retry, then fail or degrade), skips
// slots that provably cannot contribute, and merges the per-slot answers
// under the library-wide (score desc, id asc) total order. Each slot's
// list is exact over its own nodes, so the merge is the exact top-k over
// the union of the surviving slots — bit-identical, ids and scores, to a
// single engine over those nodes (paper Lemmas 1–2, Theorem 2).
//
// Two phases per call:
//   A. every slot that owns one of a query's sources — mandatory, since a
//      source's own proximity can reach c and escapes the score bound;
//   B. every other slot, except those whose score bound is strictly below
//      θ, the k-th best score phase A found for that query. No node of a
//      skipped slot can displace k found candidates: strict < keeps a tie
//      with a smaller node id in play.
// A slot with an empty owned range and an infinite bound (a remote worker)
// is never mandatory and never skipped, so a router's fan-out is a single
// phase-B round trip.
#ifndef KDASH_SERVING_FAN_OUT_H_
#define KDASH_SERVING_FAN_OUT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace kdash::serving {

// What the fan-out does when one slot's search fails (an injected fault, a
// failed IO-backed shard, a dead worker) while the others succeed. A
// kInvalidArgument is never subject to this policy: every slot validates
// the query identically, so an invalid query fails the call outright under
// every mode — degradation must never mask caller bugs.
enum class ShardFailureMode {
  // The default: the first slot failure fails the whole query
  // (SearchBatch: the whole batch).
  kFailFast,
  // Retry the failing slot with bounded exponential backoff; if it still
  // fails after max_retries extra attempts, fail the query.
  kRetry,
  // Retry like kRetry, then drop the slot: merge the surviving slots
  // exactly and tag the result (shards_ok/shards_failed). Fails only when
  // fewer than min_shards_ok shards survive.
  kDegrade,
};

struct ShardFailurePolicy {
  ShardFailureMode mode = ShardFailureMode::kFailFast;

  // Extra attempts per slot per query (kRetry/kDegrade). 0 = no retries.
  int max_retries = 2;

  // Backoff before retry r is initial_backoff · 2^r, capped at max_backoff.
  // A sleep never runs past the query's deadline.
  std::chrono::microseconds initial_backoff{100};
  std::chrono::microseconds max_backoff{10'000};

  // kDegrade: a query needs at least this many surviving shards, else it
  // fails with the first slot's error.
  int min_shards_ok = 1;
};

// InvalidArgument unless max_retries >= 0 and min_shards_ok >= 1.
[[nodiscard]] Status ValidateFailurePolicy(const ShardFailurePolicy& policy);

struct FanOutSlot {
  // The slot's name in spans and error messages (a shard id, a slot index).
  int id = 0;
  // Shards this slot stands for in shards_ok/shards_failed.
  int weight = 1;
  // Node ids [owned_begin, owned_end): a query with a source in this range
  // searches the slot in phase A.
  NodeId owned_begin = 0;
  NodeId owned_end = 0;
  // Upper bound on the score of any non-source node the slot owns.
  Scalar score_bound = std::numeric_limits<Scalar>::infinity();
};

// One attempt of one query on one slot. `attempt` counts from 0, so a
// caller can pick a different replica per retry. On Ok, *out holds the
// slot's exact top-k. Called concurrently from pool threads.
using SlotSearch = std::function<Status(const Query& query, std::size_t slot,
                                        int attempt, SearchResult* out)>;

// An event count kept per caller instance and, when `metric` is set,
// mirrored into a process-wide registry counter.
class FanOutTally {
 public:
  FanOutTally() = default;
  explicit FanOutTally(obs::Counter* metric) : metric_(metric) {}

  void Add() {
    value_.fetch_add(1, std::memory_order_relaxed);
    if (metric_ != nullptr) metric_->Add();
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  obs::Counter* metric_ = nullptr;
};

// Where a caller's fan-outs are reported: its span names, merge histogram
// and tallies. Resolved once per caller so the hot path never takes the
// registry lock.
struct FanOutReport {
  std::string_view merge_span = {};  // one per query
  std::string_view skip_span = {};   // one per skipped (query, slot) pair
  obs::Histogram* merge_us = nullptr;
  FanOutTally failures = {};  // failed slot attempts
  FanOutTally retries = {};   // retry attempts issued
  FanOutTally degraded = {};  // queries answered with shards_failed > 0
  FanOutTally skipped = {};   // (query, slot) pairs skipped by the bound
};

// Fans `queries` out over `slots` and returns results[i] for queries[i],
// or the first failing query's status (prefixed "query i: " in a batch of
// more than one). Failures are scanned in slot order, so the reported
// error does not depend on timing.
[[nodiscard]] Result<std::vector<SearchResult>> FanOut(
    std::span<const Query> queries, std::span<const FanOutSlot> slots,
    const ShardFailurePolicy& policy, ThreadPool& pool,
    const SlotSearch& search, FanOutReport& report);

}  // namespace kdash::serving

#endif  // KDASH_SERVING_FAN_OUT_H_
