// perfbench_driver: one run of one workload.
//
//   perfbench_driver --workload deep|hot|sharded|routed --seed N
//                    --seconds S --trace 0|1 [--nodes N]
//                    [--git-sha SHA] [--trace-file PATH]
//                    [--corrupt-reference]
//
// Untraced (--trace 0): builds the workload's stack kRounds+1 times (the
// first untimed) and reports the median as setup_s, warms up, runs the
// timed closed loop for S seconds in kRounds windows, checks every answer,
// and prints the end-to-end metrics. Traced (--trace 1): replays the precompute stage by
// stage under spans, runs the closed loop untraced and then traced for
// S/2 seconds each, walks the per-layer ledger, and prints the per-layer
// table and metrics. The last stdout line is always the result object;
// the line before it is the run's context (nproc, budget, sha, seed).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "perfbench.h"
#include "tools/json_lines.h"

namespace kdash::perfbench {
namespace {

constexpr std::size_t kStreamLength = 1 << 17;
// Timed set-ups and windows of an untraced run; every end-to-end timing
// is the median over them.
constexpr int kRounds = 5;
// Untimed warm-up on each freshly built stack before its timed window.
constexpr double kRoundWarmupSeconds = 0.3;

struct Options {
  Workload workload = Workload::kDeep;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  NodeId nodes = 2000;
  bool corrupt = false;
  std::string git_sha = "unknown";
  std::string trace_file;
};

int Usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload deep|hot|sharded|routed "
               "--seed N --seconds S --trace 0|1 [--nodes N] "
               "[--git-sha SHA] [--trace-file PATH] [--corrupt-reference]\n";
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0';
    if (flag == "--workload") {
      const auto workload = ParseWorkload(value);
      if (!workload) {
        *error = "unknown workload " + value;
        return false;
      }
      options->workload = *workload;
      have_workload = true;
    } else if (flag == "--seed" && numeric && number >= 0) {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds" && numeric && number > 0) {
      options->seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options->trace = value == "1";
      have_trace = true;
    } else if (flag == "--nodes" && numeric && number >= 64) {
      options->nodes = static_cast<NodeId>(number);
    } else if (flag == "--git-sha") {
      options->git_sha = value;
    } else if (flag == "--trace-file") {
      options->trace_file = value;
    } else {
      *error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Tears a stack down in dependency order (router, workers, shards), and
// hands the freed memory back to the OS so the next build's peak RSS does
// not depend on what earlier builds left in the allocator.
void Reset(Stack* stack) {
  stack->router.reset();
  stack->workers.clear();
  stack->sharded.reset();
  stack->engine.reset();
  malloc_trim(0);
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

// ---- the hot request path -------------------------------------------------

// The backend callable the benchmark hands the scheduler. When recording,
// it logs each call as a `core` span (it only ever runs on the scheduler
// thread; the log is read after every future has resolved).
struct BackendLog {
  std::atomic<bool> recording{false};
  SpanLog calls;
};

serving::BatchScheduler::Backend LoggedBackend(const Engine& engine,
                                               BackendLog* log) {
  return [&engine, log](std::span<const Query> batch) {
    if (!log->recording.load(std::memory_order_relaxed)) {
      return engine.SearchBatch(batch);
    }
    const std::int32_t span =
        log->calls.Open(0, -1, Layer::kCore, "Engine::SearchBatch");
    auto result = engine.SearchBatch(batch);
    log->calls.Close(span);
    return result;
  };
}

// kdash_server's per-request work: parse the line, submit, format.
RequestFn HotRequest(const Stream& stream, serving::BatchScheduler& scheduler) {
  return [&stream, &scheduler](std::size_t at, SpanLog* log,
                               std::int32_t root) -> Result<SearchResult> {
    Query query;
    std::string error;
    std::int32_t span =
        log ? log->Child(root, Layer::kProto, "tools::ParseQueryLine") : -1;
    const bool parsed = tools::ParseQueryLine(stream.lines[at], 5, &query, &error);
    if (log) log->Close(span);
    if (!parsed) return Status::InvalidArgument(error);

    if (log) span = log->Child(root, Layer::kScheduler, "BatchScheduler::Submit");
    Result<SearchResult> result = scheduler.Submit(query).get();
    if (log) log->Close(span);
    if (!result.ok()) return result;

    if (log) span = log->Child(root, Layer::kProto, "tools::FormatResultRecord");
    const std::string record = tools::FormatResultRecord(
        static_cast<long long>(at), query, *result);
    if (log) log->Close(span);
    if (record.empty()) return Status::Internal("empty record");
    return result;
  };
}

// Span totals of the client logs. With `backend`, the backend calls join
// them as `core` time inside serving.scheduler: a call serves its whole
// batch, so its time leaves the scheduler's self time once, however many
// requests waited on it.
LayerTotals Totals(const std::vector<SpanLog>& logs,
                   const BackendLog* backend = nullptr) {
  LayerTotals totals;
  for (const SpanLog& log : logs) AccumulateSelfTimes(log, &totals);
  if (backend != nullptr) {
    const int sched = static_cast<int>(Layer::kScheduler);
    const int core = static_cast<int>(Layer::kCore);
    const double core_before = totals.total_us[core];
    AccumulateSelfTimes(backend->calls, &totals);
    totals.self_us[sched] = std::max(
        0.0, totals.self_us[sched] - (totals.total_us[core] - core_before));
  }
  return totals;
}

// sched.* from a traced run of the hot path; `totals` as Totals gives them
// with the backend calls.
std::vector<Metric> SchedulerMetrics(const LayerTotals& totals,
                                     const serving::BatchScheduler::Stats& before,
                                     const serving::BatchScheduler::Stats& after,
                                     std::uint64_t cache_hits) {
  const int sched = static_cast<int>(Layer::kScheduler);
  const double submitted =
      std::max<double>(1, static_cast<double>(after.submitted - before.submitted));
  const double batches = std::max<double>(
      1, static_cast<double>(after.batches_dispatched - before.batches_dispatched));
  // Per submitted request: the backend's time, shared out over the
  // requests it served, and the rest of Submit-to-resolve.
  const double backend_us =
      (totals.total_us[sched] - totals.self_us[sched]) / submitted;
  return {
      {"sched.wait_us", totals.total_us[sched] / submitted - backend_us, "us"},
      {"sched.backend_us", backend_us, "us"},
      {"sched.batch_size", submitted / batches, "count"},
      {"sched.coalesced_frac",
       static_cast<double>(after.coalesced - before.coalesced) / submitted,
       "fraction"},
      {"cache.hit_frac", static_cast<double>(cache_hits) / submitted,
       "fraction"},
  };
}

// ---- one workload ---------------------------------------------------------

class Run {
 public:
  Run(const Options& options, const graph::Graph& graph, const Stream& stream)
      : options_(options),
        graph_(graph),
        stream_(stream),
        budget_(BudgetFor(options.workload)) {}

  int Timed();
  int Traced();

 private:
  Workload workload() const { return options_.workload; }
  // The served engine on deep and hot, the reference engine otherwise.
  const Engine& Unsharded() const {
    return stack_.engine.has_value() ? *stack_.engine : *reference_;
  }

  // The request one client issues on this workload's path.
  RequestFn Request();
  // Scheduler of the hot path over the served engine (hot only).
  void StartScheduler(const Engine& engine);
  void StopScheduler();
  // Every answer against its reference; returns mismatches.
  std::uint64_t Check(const std::vector<Answer>& answers,
                      std::uint64_t* checked);
  double WarmupSeconds() const {
    return std::max(0.5, 0.1 * options_.seconds);
  }
  // The line before the result: what produced it, plus `fields`.
  void PrintContext(const std::string& fields) const;

  const Options& options_;
  const graph::Graph& graph_;
  const Stream& stream_;
  const ThreadBudget budget_;
  Stack stack_;
  std::optional<Engine> reference_;  // sharded, routed
  BackendLog backend_log_;
  std::unique_ptr<serving::BatchScheduler> scheduler_;
  std::size_t cursor_ = 0;
};

void Run::PrintContext(const std::string& fields) const {
  std::cout << "{\"context\": {\"workload\": \"" << WorkloadName(workload())
            << "\", \"seed\": " << options_.seed << ", \"git_sha\": \""
            << options_.git_sha << "\", \"nproc\": " << CountCpus()
            << ", \"budget\": {\"build_threads\": " << budget_.build_threads
            << ", \"clients\": " << budget_.clients
            << ", \"program_threads\": " << budget_.program_threads
            << ", \"search_threads\": " << budget_.search_threads
            << ", \"io_threads\": " << budget_.io_threads
            << "}, \"nodes\": " << graph_.num_nodes()
            << ", \"edges\": " << graph_.num_edges() << fields << "}}"
            << std::endl;
}

RequestFn Run::Request() {
  switch (workload()) {
    case Workload::kDeep:
      return [this](std::size_t at, SpanLog* log,
                    std::int32_t root) -> Result<SearchResult> {
        const std::int32_t span =
            log ? log->Child(root, Layer::kCore, "Engine::Search") : -1;
        auto result = stack_.engine->Search(stream_.queries[at]);
        if (log) log->Close(span);
        return result;
      };
    case Workload::kHot:
      return HotRequest(stream_, *scheduler_);
    case Workload::kSharded:
      return [this](std::size_t at, SpanLog* log,
                    std::int32_t root) -> Result<SearchResult> {
        const std::int32_t span =
            log ? log->Child(root, Layer::kFanout, "ShardedEngine::Search") : -1;
        auto result = stack_.sharded->Search(stream_.queries[at]);
        if (log) log->Close(span);
        return result;
      };
    case Workload::kRouted:
      return [this](std::size_t at, SpanLog* log,
                    std::int32_t root) -> Result<SearchResult> {
        const std::int32_t span =
            log ? log->Child(root, Layer::kRouter, "Router::Search") : -1;
        auto result = stack_.router->Search(stream_.queries[at]);
        if (log) log->Close(span);
        return result;
      };
  }
  return nullptr;
}

void Run::StartScheduler(const Engine& engine) {
  scheduler_ = std::make_unique<serving::BatchScheduler>(
      LoggedBackend(engine, &backend_log_), ServingSchedulerOptions());
}

void Run::StopScheduler() {
  if (scheduler_ != nullptr) scheduler_->Shutdown();
  scheduler_.reset();
}

std::uint64_t Run::Check(const std::vector<Answer>& answers,
                         std::uint64_t* checked) {
  if (answers.empty()) {
    *checked = 0;
    return 0;
  }
  if (workload() == Workload::kDeep) {
    return CheckAgainstPowerIteration(*stack_.engine, graph_, stream_, answers,
                                      options_.seed, options_.corrupt,
                                      checked);
  }
  *checked = answers.size();
  return CheckBitIdentical(Unsharded(), stream_, answers, options_.corrupt);
}

int Run::Timed() {
  // One untimed warm-up set-up and loop, then kRounds rounds of: a timed
  // set-up from the generated graph, a short untimed warm-up on the new
  // stack, and a timed window of seconds/kRounds. Each metric is the median
  // over the rounds, so one slow stretch of a shared host, or one unlucky
  // memory layout of a build, moves it little.
  BuildStack(workload(), graph_, budget_, &stack_);
  if (workload() == Workload::kHot) StartScheduler(*stack_.engine);
  RunClosedLoop(budget_.clients, kStreamLength, &cursor_, WarmupSeconds(), 0,
                false, Request());

  std::vector<double> setup_seconds, qps, p50_us, p90_us, p99_us;
  std::vector<Answer> answers;
  std::uint64_t attempted = 0, errors = 0;
  const double window = options_.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    StopScheduler();
    Reset(&stack_);
    const Clock::time_point start = Clock::now();
    BuildStack(workload(), graph_, budget_, &stack_);
    setup_seconds.push_back(SecondsSince(start));
    if (workload() == Workload::kHot) StartScheduler(*stack_.engine);

    const RequestFn request = Request();
    RunClosedLoop(budget_.clients, kStreamLength, &cursor_, kRoundWarmupSeconds,
                  0, false, request);
    const LoopResult loop = RunClosedLoop(budget_.clients, kStreamLength,
                                          &cursor_, window, 0, false, request);
    qps.push_back(static_cast<double>(loop.attempted - loop.failed) /
                  loop.wall_seconds);
    p50_us.push_back(Percentile(loop.latency_us, 0.50));
    p90_us.push_back(Percentile(loop.latency_us, 0.90));
    p99_us.push_back(Percentile(loop.latency_us, 0.99));
    attempted += loop.attempted;
    errors += loop.failed;
    answers.insert(answers.end(), loop.answers.begin(), loop.answers.end());
  }
  StopScheduler();
  const double index_mb =
      static_cast<double>(ServedIndexBytes(stack_)) / (1024.0 * 1024.0);
  const double peak_rss_mb = PeakRssMb();

  // Reference work comes after every timed phase.
  if (!stack_.engine.has_value()) {
    reference_.emplace(BuildReferenceEngine(graph_, budget_));
  }
  std::uint64_t checked = 0;
  const std::uint64_t mismatches = Check(answers, &checked);
  const std::uint64_t failed = errors + mismatches;

  PrintContext(", \"rounds\": " + std::to_string(kRounds) +
               ", \"window_s\": " + JsonNumber(window) +
               ", \"latency_samples\": " + std::to_string(attempted) +
               ", \"latency_samples_per_round\": " +
               std::to_string(attempted / kRounds) +
               ", \"answers_checked\": " + std::to_string(checked) +
               ", \"mismatches\": " + std::to_string(mismatches) +
               ", \"p99_us\": " + JsonNumber(Median(p99_us)));
  PrintResult(failed == 0 && attempted > 0, attempted, failed,
              {
                  {"setup_s", Median(setup_seconds), "s"},
                  {"index_mb", index_mb, "MiB"},
                  {"peak_rss_mb", peak_rss_mb, "MiB"},
                  {"qps", Median(qps), "queries/s"},
                  {"p50_us", Median(p50_us), "us"},
                  {"p90_us", Median(p90_us), "us"},
              });
  return 0;
}

int Run::Traced() {
  const Clock::time_point epoch = Clock::now();
  SpanLog setup_log;
  std::vector<Metric> metrics = TracePrecompute(graph_, budget_, &setup_log);
  const std::int32_t setup_span =
      setup_log.Open(0, -1, Layer::kSetup, "workload set-up");
  BuildStack(workload(), graph_, budget_, &stack_);
  setup_log.Close(setup_span);
  if (!stack_.engine.has_value()) {
    reference_.emplace(BuildReferenceEngine(graph_, budget_));
  }
  if (workload() == Workload::kHot) StartScheduler(*stack_.engine);

  // Warm up, then the same loop untraced and traced, half the time each.
  const RequestFn request = Request();
  RunClosedLoop(budget_.clients, kStreamLength, &cursor_, WarmupSeconds(), 0,
                false, request);
  const double half = options_.seconds / 2;
  const LoopResult plain = RunClosedLoop(budget_.clients, kStreamLength,
                                         &cursor_, half, 0, false, request);
  obs::Counter& cache_hits = obs::MetricRegistry::Global().GetCounter("cache.hit");
  serving::BatchScheduler::Stats before;
  if (scheduler_ != nullptr) before = scheduler_->stats();
  std::uint64_t hits_before = cache_hits.Value();
  backend_log_.recording = true;
  const LoopResult traced = RunClosedLoop(budget_.clients, kStreamLength,
                                          &cursor_, half, 0, true, request);
  backend_log_.recording = false;

  // The loop's span totals; on hot they include the scheduler's backend.
  const bool hot = workload() == Workload::kHot;
  const LayerTotals totals = Totals(traced.logs, hot ? &backend_log_ : nullptr);

  // serving.scheduler: from this loop on hot, else from a short traced run
  // of the hot path over this workload's stream on the unsharded engine.
  std::vector<Metric> sched;
  if (hot) {
    sched = SchedulerMetrics(totals, before, scheduler_->stats(),
                             cache_hits.Value() - hits_before);
    StopScheduler();
  } else {
    StartScheduler(Unsharded());
    before = scheduler_->stats();
    hits_before = cache_hits.Value();
    backend_log_.recording = true;
    std::size_t probe_cursor = 0;
    const LoopResult probe =
        RunClosedLoop(2, kStreamLength, &probe_cursor, 60.0, 1024, true,
                      HotRequest(stream_, *scheduler_));
    backend_log_.recording = false;
    const auto after = scheduler_->stats();
    StopScheduler();
    sched = SchedulerMetrics(Totals(probe.logs, &backend_log_), before, after,
                             cache_hits.Value() - hits_before);
  }

  // The span table, unattributed remainder and tracing overhead.
  const int request_layer = static_cast<int>(Layer::kRequest);
  const double requests = std::max<double>(1, static_cast<double>(traced.attempted));
  const double covered =
      totals.total_us[request_layer] - totals.self_us[request_layer];
  const double unattributed_us =
      (traced.client_seconds * 1e6 - covered) / requests;
  const double plain_qps =
      static_cast<double>(plain.attempted) / plain.wall_seconds;
  const double traced_qps =
      static_cast<double>(traced.attempted) / traced.wall_seconds;
  const double overhead_pct = (plain_qps / traced_qps - 1.0) * 100.0;

  const LedgerResult ledger =
      RunLedger(graph_, stream_, options_.seed, Unsharded(), &stack_);

  std::uint64_t checked_plain = 0, checked_traced = 0;
  const std::uint64_t mismatches = Check(plain.answers, &checked_plain) +
                                   Check(traced.answers, &checked_traced) +
                                   ledger.mismatches;
  const std::uint64_t attempted =
      plain.attempted + traced.attempted + ledger.checked;
  const std::uint64_t failed = plain.failed + traced.failed + mismatches;

  if (!options_.trace_file.empty()) {
    std::string out;
    WriteSpans(setup_log, -1, epoch, &out);
    for (std::size_t c = 0; c < traced.logs.size(); ++c) {
      WriteSpans(traced.logs[c], static_cast<int>(c), epoch, &out);
    }
    if (hot) WriteSpans(backend_log_.calls, -2, epoch, &out);
    std::ofstream file(options_.trace_file);
    file << out;
  }

  // The per-layer table.
  std::printf("# %s traced loop: %llu requests on %d client(s); span time "
              "per request\n",
              WorkloadName(workload()),
              static_cast<unsigned long long>(traced.attempted),
              budget_.clients);
  std::printf("# %-20s %8s %12s %12s %8s\n", "layer", "spans", "total_us",
              "self_us", "self%");
  const double client_us = traced.client_seconds * 1e6;
  for (int layer = 0; layer < static_cast<int>(Layer::kCount); ++layer) {
    if (totals.count[layer] == 0) continue;
    std::printf("# %-20s %8llu %12.2f %12.2f %7.1f%%\n",
                LayerName(static_cast<Layer>(layer)),
                static_cast<unsigned long long>(totals.count[layer]),
                totals.total_us[layer] / requests,
                totals.self_us[layer] / requests,
                100.0 * totals.self_us[layer] / client_us);
  }
  std::printf("# %-20s %8s %12s %12.2f %7.1f%%\n", "(unattributed)", "", "",
              unattributed_us, 100.0 * unattributed_us * requests / client_us);
  std::printf("# tracing overhead: %.1f qps untraced, %.1f qps traced: "
              "%+.2f%%\n",
              plain_qps, traced_qps, overhead_pct);
  for (const Span& span : setup_log.spans()) {
    std::printf("# set-up span %-10s %-36s %10.3f s\n", LayerName(span.layer),
                span.what, span.micros() * 1e-6);
  }

  metrics.insert(metrics.end(), ledger.metrics.begin(), ledger.metrics.end());
  metrics.insert(metrics.end(), sched.begin(), sched.end());
  metrics.push_back({"trace.unattributed_us", unattributed_us, "us"});
  metrics.push_back({"trace.overhead_pct", overhead_pct, "%"});
  for (const Metric& metric : metrics) {
    std::printf("# %-24s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);

  PrintContext(", \"traced_requests\": " + std::to_string(traced.attempted) +
               ", \"untraced_requests\": " + std::to_string(plain.attempted) +
               ", \"ledger_sample\": " + std::to_string(kLedgerSample) +
               ", \"mismatches\": " + std::to_string(mismatches));
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) return Usage(error);
  tools::IgnoreSigpipe();

  const ThreadBudget budget = BudgetFor(options.workload);
  const int nproc = CountCpus();
  if (budget.peak() > nproc) {
    std::cerr << "perfbench_driver: refusing to run " << WorkloadName(options.workload)
              << ": its thread budget (" << budget.peak()
              << ") exceeds nproc (" << nproc << ")\n";
    return 3;
  }
  const graph::Graph graph = MakeGraph(options.nodes);
  const Stream stream =
      MakeStream(options.workload, graph, options.seed, kStreamLength);
  Run run(options, graph, stream);
  return options.trace ? run.Traced() : run.Timed();
}

}  // namespace
}  // namespace kdash::perfbench

int main(int argc, char** argv) { return kdash::perfbench::Main(argc, argv); }
