#include "serving/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kdash::serving {

struct ShardedEngine::ControlBlock {
  // Tallies and registry handles for the shared fan-out, resolved once so
  // the hot path never takes the registry lock.
  FanOutReport report{
      .merge_span = "sharded.merge",
      .skip_span = "sharded.shard_skip",
      .merge_us =
          &obs::MetricRegistry::Global().GetHistogram("serving.merge_us"),
      .failures = FanOutTally(
          &obs::MetricRegistry::Global().GetCounter("serving.shard_failures")),
      .retries = FanOutTally(
          &obs::MetricRegistry::Global().GetCounter("serving.shard_retries")),
      .degraded = FanOutTally(&obs::MetricRegistry::Global().GetCounter(
          "serving.degraded_queries")),
      .skipped = FanOutTally(
          &obs::MetricRegistry::Global().GetCounter("serving.shards_skipped")),
  };
  // Per-shard latency histograms, filled by InitSlots once the shard ids
  // are known.
  std::vector<obs::Histogram*> m_shard_latency_us;

  // The failure policy is multi-field, so it gets a real lock: a fan-out
  // snapshots it once per call and set_failure_policy replaces it whole —
  // a policy change never tears across one query's shard attempts.
  mutable Mutex policy_mutex;
  ShardFailurePolicy policy KDASH_GUARDED_BY(policy_mutex);
};

ShardedEngine::ShardedEngine() : control_(std::make_unique<ControlBlock>()) {}
ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;
ShardedEngine::~ShardedEngine() = default;

ShardedEngine::FailureStats ShardedEngine::failure_stats() const {
  FailureStats stats;
  stats.shard_failures = control_->report.failures.value();
  stats.shard_retries = control_->report.retries.value();
  stats.degraded_queries = control_->report.degraded.value();
  return stats;
}

std::string ShardedEngine::FailureStats::ToJson() const {
  return "{\"shard_failures\":" + std::to_string(shard_failures) +
         ",\"shard_retries\":" + std::to_string(shard_retries) +
         ",\"degraded_queries\":" + std::to_string(degraded_queries) + "}";
}

std::uint64_t ShardedEngine::shards_skipped() const {
  return control_->report.skipped.value();
}

NodeId ShardedEngine::owned_nodes() const {
  NodeId owned = 0;
  for (const FanOutSlot& s : slots_) owned += s.owned_end - s.owned_begin;
  return owned;
}

ShardFailurePolicy ShardedEngine::failure_policy() const {
  MutexLock lock(control_->policy_mutex);
  return control_->policy;
}

Status ShardedEngine::set_failure_policy(const ShardFailurePolicy& policy) {
  KDASH_RETURN_IF_ERROR(ValidateFailurePolicy(policy));
  MutexLock lock(control_->policy_mutex);
  control_->policy = policy;
  return Status::Ok();
}

ThreadPool& ShardedEngine::Pool() const {
  return owned_pool_ != nullptr ? *owned_pool_ : ThreadPool::Shared();
}

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "kdash-sharded-index v1";

std::string ShardFileName(int s) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04d.kdash", s);
  return name;
}

// Contiguous fenceposts splitting [0, n) into P near-equal ranges.
std::vector<NodeId> MakeBounds(NodeId n, int num_shards) {
  std::vector<NodeId> bounds(static_cast<std::size_t>(num_shards) + 1, 0);
  for (int s = 0; s <= num_shards; ++s) {
    bounds[static_cast<std::size_t>(s)] = static_cast<NodeId>(
        (static_cast<std::int64_t>(n) * s) / num_shards);
  }
  return bounds;
}

Status ManifestError(const std::string& detail) {
  return Status::DataLoss("corrupt sharded-index manifest: " + detail);
}

}  // namespace

Result<ShardedEngine> ShardedEngine::Build(const graph::Graph& graph,
                                           const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (graph.num_nodes() > 0 && options.num_shards > graph.num_nodes()) {
    return Status::InvalidArgument(
        "num_shards " + std::to_string(options.num_shards) +
        " exceeds the graph's " + std::to_string(graph.num_nodes()) +
        " nodes");
  }
  if (options.num_search_threads < 0) {
    return Status::InvalidArgument("num_search_threads must be >= 0");
  }

  ShardedEngine sharded;
  KDASH_RETURN_IF_ERROR(sharded.set_failure_policy(options.failure_policy));

  // One full precompute (Engine::Build validates graph and index options),
  // then P restrictions of it.
  EngineOptions full_options;
  full_options.index = options.index;
  KDASH_ASSIGN_OR_RETURN(auto full, Engine::Build(graph, full_options));

  sharded.num_nodes_ = graph.num_nodes();
  // A dedicated fan-out pool only when the requested size differs from the
  // shared pool's default — same single-default-pool policy (and same
  // no-materialization size check) as core::SearcherPool.
  if (options.num_search_threads > 0 &&
      options.num_search_threads != DefaultNumThreads()) {
    sharded.owned_pool_ =
        std::make_unique<ThreadPool>(options.num_search_threads);
  }
  const std::vector<NodeId> bounds =
      MakeBounds(graph.num_nodes(), options.num_shards);

  const int num_shards = options.num_shards;
  std::vector<std::optional<Engine>> shards(
      static_cast<std::size_t>(num_shards));
  ThreadPool::Shared().ParallelFor(
      0, num_shards, /*grain=*/1, [&](Index begin, Index end, int) {
        for (Index s = begin; s < end; ++s) {
          const auto i = static_cast<std::size_t>(s);
          shards[i] = Engine::FromIndex(
              full.index().Restrict(bounds[i], bounds[i + 1]));
        }
      });
  std::vector<int> ids;
  for (auto& shard : shards) {
    ids.push_back(static_cast<int>(sharded.shards_.size()));
    sharded.shards_.push_back(std::move(*shard));
  }
  sharded.InitSlots(ids);
  return sharded;
}

void ShardedEngine::InitSlots(const std::vector<int>& ids) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const core::KDashIndex& index = shards_[s].index();
    FanOutSlot slot;
    slot.id = ids[s];
    slot.owned_begin = index.owned_begin();
    slot.owned_end = index.owned_end();
    slot.score_bound = index.owned_score_bound();
    slots_.push_back(slot);
    control_->m_shard_latency_us.push_back(
        &obs::MetricRegistry::Global().GetHistogram(
            "serving.shard_latency_us.s" + std::to_string(ids[s])));
  }
}

Status ShardedEngine::Save(const std::string& dir) const {
  if (owned_nodes() != num_nodes_) {
    return Status::FailedPrecondition(
        "cannot save an engine opened on a subset of its shards");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::FailedPrecondition("cannot create directory " + dir + ": " +
                                      ec.message());
  }
  const std::string manifest_path = dir + "/" + kManifestName;
  std::ofstream manifest(manifest_path);
  if (!manifest.good()) {
    return Status::FailedPrecondition("cannot open " + manifest_path +
                                      " for writing");
  }
  manifest << kManifestHeader << "\n";
  manifest << "num_nodes " << num_nodes_ << "\n";
  manifest << "num_shards " << num_shards() << "\n";
  for (int s = 0; s < num_shards(); ++s) {
    manifest << "shard " << s << " " << shard_begin(s) << " " << shard_end(s)
             << " " << ShardFileName(s) << "\n";
  }
  manifest.flush();
  if (!manifest.good()) {
    return Status::DataLoss("manifest write to " + manifest_path + " failed");
  }
  for (int s = 0; s < num_shards(); ++s) {
    KDASH_RETURN_IF_ERROR(
        shards_[static_cast<std::size_t>(s)].Save(dir + "/" + ShardFileName(s)));
  }
  return Status::Ok();
}

Result<ShardedEngine> ShardedEngine::Open(const std::string& dir,
                                          std::vector<int> shard_ids) {
  const std::string manifest_path = dir + "/" + kManifestName;
  std::ifstream manifest(manifest_path);
  if (!manifest.good()) {
    return Status::NotFound("no sharded-index manifest at " + manifest_path);
  }

  std::string header;
  if (!std::getline(manifest, header)) {
    return ManifestError("empty manifest");
  }
  if (header != kManifestHeader) {
    if (header.rfind("kdash-sharded-index", 0) == 0) {
      return Status::FailedPrecondition(
          "sharded-index version mismatch: manifest says \"" + header +
          "\", this build reads \"" + kManifestHeader + "\"");
    }
    return ManifestError("unrecognized header \"" + header + "\"");
  }

  NodeId num_nodes = -1;
  long long num_shards = -1;
  {
    std::string keyword;
    std::string line;
    if (!std::getline(manifest, line) ||
        !(std::istringstream(line) >> keyword >> num_nodes) ||
        keyword != "num_nodes" || num_nodes <= 0) {
      return ManifestError("bad num_nodes line");
    }
    if (!std::getline(manifest, line) ||
        !(std::istringstream(line) >> keyword >> num_shards) ||
        keyword != "num_shards" || num_shards < 1 || num_shards > num_nodes) {
      return ManifestError("bad num_shards line");
    }
  }

  const auto shard_count = static_cast<std::size_t>(num_shards);
  std::vector<NodeId> bounds(shard_count + 1, 0);
  std::vector<std::string> files(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::string line;
    if (!std::getline(manifest, line)) {
      return ManifestError("missing shard line " + std::to_string(s));
    }
    std::istringstream fields(line);
    std::string keyword, file;
    long long id = -1;
    NodeId begin = -1, end = -1;
    if (!(fields >> keyword >> id >> begin >> end >> file) ||
        keyword != "shard" || id != static_cast<long long>(s)) {
      return ManifestError("bad shard line " + std::to_string(s));
    }
    // Shards must partition [0, num_nodes) contiguously and in order.
    if (begin != bounds[s] || end < begin || end > num_nodes ||
        (s + 1 == shard_count && end != num_nodes)) {
      return ManifestError("shard ranges do not partition [0, " +
                           std::to_string(num_nodes) + ")");
    }
    bounds[s + 1] = end;
    files[s] = std::move(file);
  }

  if (shard_ids.empty()) {
    for (int s = 0; s < static_cast<int>(shard_count); ++s) {
      shard_ids.push_back(s);
    }
  }
  std::sort(shard_ids.begin(), shard_ids.end());
  for (std::size_t i = 0; i < shard_ids.size(); ++i) {
    if (shard_ids[i] < 0 || shard_ids[i] >= static_cast<int>(shard_count)) {
      return Status::InvalidArgument(
          "shard id " + std::to_string(shard_ids[i]) + " is not in [0, " +
          std::to_string(shard_count) + ")");
    }
    if (i > 0 && shard_ids[i] == shard_ids[i - 1]) {
      return Status::InvalidArgument("shard id " +
                                     std::to_string(shard_ids[i]) +
                                     " listed twice");
    }
  }

  // Load the listed shard files in parallel on the shared pool.
  const std::size_t load_count = shard_ids.size();
  std::vector<std::optional<Engine>> loaded(load_count);
  std::vector<Status> statuses(load_count);
  ThreadPool::Shared().ParallelFor(
      0, static_cast<Index>(load_count), /*grain=*/1,
      [&](Index begin, Index end, int) {
        for (Index i = begin; i < end; ++i) {
          const auto at = static_cast<std::size_t>(i);
          const auto s = static_cast<std::size_t>(shard_ids[at]);
          auto engine = Engine::Open(dir + "/" + files[s]);
          if (engine.ok()) {
            loaded[at].emplace(std::move(*engine));
          } else {
            statuses[at] = engine.status();
          }
        }
      });
  for (std::size_t i = 0; i < load_count; ++i) {
    const auto s = static_cast<std::size_t>(shard_ids[i]);
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "shard " + std::to_string(s) + ": " +
                                            statuses[i].message());
    }
    const Engine& engine = *loaded[i];
    if (engine.num_nodes() != num_nodes ||
        engine.index().owned_begin() != bounds[s] ||
        engine.index().owned_end() != bounds[s + 1] ||
        engine.restart_prob() != loaded[0]->restart_prob()) {
      return ManifestError("shard " + std::to_string(s) +
                           " file disagrees with the manifest");
    }
  }

  ShardedEngine sharded;
  sharded.num_nodes_ = num_nodes;
  for (auto& engine : loaded) sharded.shards_.push_back(std::move(*engine));
  sharded.InitSlots(shard_ids);
  return sharded;
}

Status ShardedEngine::SearchShard(const Query& query, std::size_t s,
                                  SearchResult* out) const {
  const int id = slots_[s].id;
  if (fault::AnyArmed()) {
    // Two sites: a generic one for probabilistic chaos over the whole
    // fan-out, and a per-shard one so tests can kill shard s exactly.
    KDASH_RETURN_IF_ERROR(fault::Check("sharded.shard_search"));
    KDASH_RETURN_IF_ERROR(
        fault::Check("sharded.shard_search.s" + std::to_string(id)));
  }
  obs::ScopedSpan span(query.trace.get(), "sharded.shard_search", id);
  WallTimer timer;
  // Shard queries run with the trace detached: the shard engine is a plain
  // Engine whose "engine.search" span would duplicate the per-shard span
  // stamped here (with the shard id attached). The copy happens only for
  // traced queries — the untraced hot path passes the caller's query
  // through untouched.
  auto result = [&] {
    if (query.trace == nullptr) return shards_[s].Search(query);
    Query shard_query = query;
    shard_query.trace = nullptr;
    return shards_[s].Search(shard_query);
  }();
  control_->m_shard_latency_us[s]->Record(
      static_cast<std::uint64_t>(timer.Micros()));
  if (!result.ok()) return result.status();
  *out = std::move(*result);
  return Status::Ok();
}

Result<SearchResult> ShardedEngine::Search(const Query& query) const {
  KDASH_ASSIGN_OR_RETURN(auto results, SearchBatch({&query, 1}));
  return std::move(results.front());
}

Result<std::vector<SearchResult>> ShardedEngine::SearchBatch(
    std::span<const Query> queries) const {
  if (queries.empty()) return std::vector<SearchResult>{};
  return FanOut(
      queries, slots_, failure_policy(), Pool(),
      [this](const Query& query, std::size_t s, int, SearchResult* out) {
        return SearchShard(query, s, out);
      },
      control_->report);
}

}  // namespace kdash::serving
