// kdash::serving::ShardedEngine — partitioned indexes with exact merging.
//
// One KDashIndex holds two kinds of state: per-query machinery that every
// query needs in full (L⁻¹ columns for y, the BFS adjacency, the estimator
// tables — all O(n) or query-source-dependent) and the per-answer-node
// payload, the U⁻¹ rows, which dominate the footprint (paper Fig. 5). A
// ShardedEngine splits the payload: node ids [0, n) are partitioned into P
// contiguous ranges, and shard s keeps only the U⁻¹ rows of its range
// (KDashIndex::Restrict). A query fans out to every shard; each returns the
// exact top-k among its own nodes with bit-identical scores to a full
// index (the proximity kernel sees the same row bytes and the same y), and
// the per-shard heaps merge under the library-wide (score desc, id asc)
// total order into the exact global top-k — bit-identical, ids and scores,
// to a single unsharded Engine.
//
// What sharding buys: each shard's U⁻¹ storage is ~1/P of the full index,
// so P hosts (or P mmap'd files) can serve a graph whose full inverse does
// not fit one precompute, and per-shard query work shrinks with the shard.
// What it costs: within one process the shared machinery (L⁻¹, adjacency,
// estimator tables) exists exactly once — KDashIndex::Restrict aliases it
// behind a shared_ptr rather than copying — but every *saved shard file*
// carries a full copy of it, so P shard processes on P hosts replicate it P
// ways. Per-shard pruning thresholds are also local — looser than the
// global θ — so the summed work across shards exceeds one unsharded query.
// Sharding is a scale-out tool, not a latency optimization on one small
// host.
#ifndef KDASH_SERVING_SHARDED_ENGINE_H_
#define KDASH_SERVING_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "serving/fan_out.h"

namespace kdash::serving {

struct ShardedEngineOptions {
  // Number of node partitions. Must be in [1, num_nodes]; each shard owns a
  // contiguous id range of size ⌈n/P⌉ or ⌊n/P⌋.
  int num_shards = 2;

  // Precompute knobs for the underlying (single, then restricted) index.
  core::KDashOptions index;

  // Worker threads for fan-out and batch serving. 0 = the process-wide
  // shared pool (KDASH_NUM_THREADS workers); the shard engines themselves
  // always borrow the shared pool so P shards never spawn P pools.
  int num_search_threads = 0;

  // Per-shard failure handling for Search/SearchBatch (see fan_out.h).
  ShardFailurePolicy failure_policy;
};

class ShardedEngine {
 public:
  // Precompute once over the full graph, then split the index into
  // `options.num_shards` restricted shard engines (restriction runs on the
  // thread pool, one task per shard). The shards alias the full index's
  // immutable non-U⁻¹ state instead of copying it, so an in-process build's
  // footprint is one full index plus the per-shard U⁻¹ slices (≈ 2× the
  // U⁻¹ payload at peak, while the full index is still alive). The
  // per-process U⁻¹ memory win applies to serving a saved sharded
  // directory, where each process opens only its shard files.
  [[nodiscard]] static Result<ShardedEngine> Build(const graph::Graph& graph,
                                     const ShardedEngineOptions& options = {});

  // Open a sharded index directory written by Save(): a MANIFEST naming the
  // per-shard files, validated end to end (missing manifest/shard file =
  // kNotFound, malformed manifest = kDataLoss, version mismatch =
  // kFailedPrecondition, shards not partitioning [0, n) = kDataLoss). Shard
  // files load in parallel on the thread pool.
  //
  // `shard_ids` loads only those shards (empty = all): the engine then
  // answers with the exact top-k over the nodes they own, which is what one
  // worker of a distributed topology serves. The whole manifest is still
  // validated; an id out of range or listed twice is kInvalidArgument.
  // shard(s) follows ascending shard id.
  [[nodiscard]] static Result<ShardedEngine> Open(
      const std::string& dir, std::vector<int> shard_ids = {});

  // Persist as a directory: MANIFEST plus one index file per shard. An
  // engine opened on a subset of shards cannot write a complete manifest
  // (kFailedPrecondition).
  [[nodiscard]] Status Save(const std::string& dir) const;

  // Fan one query out to every shard (in parallel) and merge the per-shard
  // top-k heaps into the exact global top-k. Same validation and Status
  // contract as Engine::Search; stats are summed across shards
  // (terminated_early = any shard pruned). Under a kDegrade policy a result
  // may cover only the surviving shards — check SearchResult::degraded();
  // the merge over survivors is still exact (bit-identical to an engine
  // restricted to their node ranges).
  [[nodiscard]] Result<SearchResult> Search(const Query& query) const;

  // Batch variant: queries × shards fan out as one flat parallel loop, so a
  // large batch keeps every worker busy even when P is small. results[i]
  // answers queries[i]; any invalid query fails the whole batch, like
  // Engine::SearchBatch.
  [[nodiscard]] Result<std::vector<SearchResult>> SearchBatch(
      std::span<const Query> queries) const;

  NodeId num_nodes() const { return num_nodes_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Nodes owned across the loaded shards (num_nodes() unless opened on a
  // subset).
  NodeId owned_nodes() const;

  // The shard engine owning node range [shard_begin(s), shard_end(s)).
  const Engine& shard(int s) const { return shards_[static_cast<std::size_t>(s)]; }
  NodeId shard_begin(int s) const { return slot(s).owned_begin; }
  NodeId shard_end(int s) const { return slot(s).owned_end; }

  // ---- shard skipping -----------------------------------------------------
  //
  // Each shard carries a precomputed upper bound on the proximity any query
  // can assign to a NON-SOURCE node it owns (KDashIndex::owned_score_bound,
  // derived from the Lemma-1 estimator: p(u) ≤ c′(u)·Amax). The shared
  // fan-out (fan_out.h) searches the source-owning shards first, then skips
  // any remaining shard whose bound is strictly below the top-k threshold
  // those partials establish; results stay bit-identical. With c = 0.95
  // the bound is ≈ 0.05, so skips fire mostly on k=1 single-source
  // workloads where the source shard alone yields θ ≈ c.

  // Cumulative (query, shard) fan-out slots pruned by the bound, across
  // every Search/SearchBatch on this engine. Also mirrored into the
  // process-wide "serving.shards_skipped" counter.
  std::uint64_t shards_skipped() const;

  // Shard s's precomputed score bound (diagnostics/tests).
  Scalar shard_score_bound(int s) const { return slot(s).score_bound; }

  // Failure policy. The setter is for engines opened from disk (Open takes
  // no options) and rejects what ValidateFailurePolicy rejects. Both are
  // thread-safe: the policy lives behind its own mutex and every fan-out
  // snapshots it once at entry, so a concurrent set_failure_policy applies
  // to whole queries, never to half a fan-out.
  ShardFailurePolicy failure_policy() const;
  [[nodiscard]] Status set_failure_policy(const ShardFailurePolicy& policy);

  // Cumulative failure-domain counters across every Search/SearchBatch on
  // this engine (thread-safe; snapshot semantics).
  struct FailureStats {
    std::uint64_t shard_failures = 0;   // individual shard attempts that failed
    std::uint64_t shard_retries = 0;    // retry attempts issued
    std::uint64_t degraded_queries = 0; // answered from a strict shard subset

    // One JSON object, keys matching the registry's serving.* metric
    // suffixes (serving.shard_failures ↔ "shard_failures", ...).
    std::string ToJson() const;
  };
  FailureStats failure_stats() const;

  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

 private:
  // The fan-out report (tallies, metric handles), per-shard latency
  // histograms and the mutex-guarded failure policy (see .cc). Behind a
  // unique_ptr: atomics and Mutex are neither movable nor copyable, but a
  // ShardedEngine is movable.
  struct ControlBlock;

  ShardedEngine();

  const FanOutSlot& slot(int s) const {
    return slots_[static_cast<std::size_t>(s)];
  }

  // Fills slots_ and the per-shard metrics from the loaded shards, whose
  // global shard ids are `ids` (Build/Open tail).
  void InitSlots(const std::vector<int>& ids);

  // One attempt of one query on shard s: the fault-injection sites, the
  // per-shard span and latency histogram, the shard search itself.
  [[nodiscard]] Status SearchShard(const Query& query, std::size_t s,
                                   SearchResult* out) const;

  // The fan-out pool: owned when num_search_threads was set to a size that
  // differs from the shared pool's, the process-wide shared pool otherwise.
  ThreadPool& Pool() const;

  NodeId num_nodes_ = 0;
  std::vector<Engine> shards_;
  std::vector<FanOutSlot> slots_;  // parallel to shards_
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<ControlBlock> control_;
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_SHARDED_ENGINE_H_
