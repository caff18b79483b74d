// Shared declarations of the benchmark driver (see README.md).
//
// The driver measures the library end to end on four workloads and, in a
// separate traced run, layer by layer. Everything here belongs to the
// benchmark: spans are recorded in these files around calls into each
// layer's public functions, never inside the library.
#ifndef KDASH_PERFBENCH_PERFBENCH_H_
#define KDASH_PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "graph/graph.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"
#include "tools/net_util.h"

namespace kdash::perfbench {

enum class Workload { kDeep, kHot, kSharded, kRouted };

// Each workload's declared thread budget. The driver refuses to run a
// workload when either phase's total exceeds nproc: the build phase runs
// `build_threads` precompute threads and nothing else; the serving phase
// runs `clients` load-generator threads plus `program_threads` threads of
// the program that can be busy at the same moment. The budget reaches the
// program only through its public options (see serving_stack.cc).
struct ThreadBudget {
  int build_threads = 0;    // KDashOptions::num_threads
  int clients = 0;          // closed-loop client threads
  int search_threads = 0;   // {Engine,ShardedEngine}Options::num_search_threads
  int io_threads = 0;       // RouterOptions::num_io_threads (routed only)
  int program_threads = 0;  // program threads busy alongside the clients

  int peak() const { return std::max(build_threads, clients + program_threads); }
};

const char* WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(const std::string& name);
ThreadBudget BudgetFor(Workload workload);

// ---- inputs ---------------------------------------------------------------

// The benchmark's one dataset: PowerLawCluster(n, 6, 0.6, directed, 0.4)
// with a fixed graph seed, so `index_mb` and `setup_s` measure the program,
// not the draw. The workload seed drives everything else.
graph::Graph MakeGraph(NodeId num_nodes);

// A seeded request stream. `lines` holds each query in the request-line
// grammar of tools/json_lines.h (the hot workload parses them).
struct Stream {
  std::vector<Query> queries;
  std::vector<std::string> lines;
};

// deep/sharded/routed share one stream shape: uniform sources, k drawn
// from the paper's K values, 10% personalized (3 sources), 10% excluding
// the source's out-neighbours. hot is head-heavy: out-degree-weighted
// sources plus a rotating trending set of 8 nodes taking 25% of requests,
// k = 10.
Stream MakeStream(Workload workload, const graph::Graph& graph,
                  std::uint64_t seed, std::size_t length);

// ---- spans ----------------------------------------------------------------

// Layers, named after the repository's modules.
enum class Layer : std::uint8_t {
  kRequest,    // one client request, root of its span tree
  kCore,       // Engine::Search / SearchBatch
  kScheduler,  // BatchScheduler::Submit → future resolved
  kFanout,     // ShardedEngine::Search
  kRouter,     // Router::Search
  kProto,      // tools::ParseQueryLine / tools::FormatResultRecord
  kReorder,    // reorder::ComputeReordering
  kLu,         // lu::FactorizeLu, lu::Invert{Lower,Upper}Triangular
  kSetup,      // one workload setup, root of the setup span tree
  kCount,
};
const char* LayerName(Layer layer);

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t request = 0;  // spans of one request share this id
  std::int32_t parent = -1;   // index into the same SpanLog, -1 = root
  Layer layer = Layer::kRequest;
  const char* what = "";      // the public function the span wraps
  Clock::time_point start;
  Clock::time_point end;

  double micros() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

// One thread's spans, kept in memory and written out at the end.
class SpanLog {
 public:
  // Opens a span and returns its index; Close stamps the end.
  std::int32_t Open(std::uint64_t request, std::int32_t parent, Layer layer,
                    const char* what) {
    spans_.push_back({request, parent, layer, what, Clock::now(), {}});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
  }
  // Opens a child of `parent`, in the parent's request.
  std::int32_t Child(std::int32_t parent, Layer layer, const char* what) {
    return Open(spans_[static_cast<std::size_t>(parent)].request, parent,
                layer, what);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per-layer totals: span time and self time (span minus the part of its
// interval its children cover), in microseconds, plus the span count.
struct LayerTotals {
  double total_us[static_cast<int>(Layer::kCount)] = {};
  double self_us[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t count[static_cast<int>(Layer::kCount)] = {};
};
void AccumulateSelfTimes(const SpanLog& log, LayerTotals* totals);

// Appends the log as JSON lines ({"thread":..,"request":..,"parent":..,
// "layer":..,"what":..,"start_us":..,"end_us":..}), start/end relative to
// `epoch`.
void WriteSpans(const SpanLog& log, int thread, Clock::time_point epoch,
                std::string* out);

// ---- the serving stack ----------------------------------------------------

// One in-process distributed worker: LineServer + BatchScheduler at
// kdash_worker defaults + a shard engine searched on the scheduler thread,
// on an ephemeral loopback port.
class Worker {
 public:
  explicit Worker(const Engine& shard);
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  int port() const { return server_.port(); }

 private:
  serving::BatchScheduler scheduler_;
  tools::LineServer server_;
  std::thread thread_;
};

// What a workload serves from. Member order is teardown order in reverse:
// the router closes its connections before the workers drain, and the
// workers stop before the shard engines they borrow go away.
struct Stack {
  std::optional<Engine> engine;
  std::optional<serving::ShardedEngine> sharded;
  std::vector<std::unique_ptr<Worker>> workers;
  std::unique_ptr<serving::Router> router;
};

// Builds the workload's stack from the graph — exactly what `setup_s`
// times: Engine::Build (deep, hot), ShardedEngine::Build (sharded), or
// ShardedEngine::Build + workers listening + Router::Connect (routed).
// Aborts on a library error: the benchmark's inputs are valid by
// construction, so a failure here is a program fault worth stopping on.
void BuildStack(Workload workload, const graph::Graph& graph,
                const ThreadBudget& budget, Stack* stack);

// Starts one worker per shard of `stack->sharded` and connects a router
// to them: the routed part of BuildStack.
void ConnectRouter(const ThreadBudget& budget, Stack* stack);

// The unsharded reference engine the serving paths must match bit for bit.
Engine BuildReferenceEngine(const graph::Graph& graph,
                            const ThreadBudget& budget);

// Bytes Engine::Save writes, summed over the served shards.
std::uint64_t ServedIndexBytes(const Stack& stack);

// kdash_server's and kdash_worker's scheduler defaults: the library's
// batch/wait/queue defaults plus a 1024-entry result cache.
serving::BatchSchedulerOptions ServingSchedulerOptions();

// ---- closed loops ---------------------------------------------------------

// One request of a closed loop. `position` indexes the stream; `log` is
// null when the loop is untraced, else the calling client's span log and
// `root` the request's root span.
using RequestFn = std::function<Result<SearchResult>(
    std::size_t position, SpanLog* log, std::int32_t root)>;

struct Answer {
  std::size_t position = 0;
  std::uint64_t digest = 0;  // AnswerDigest of the result
};

struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    // requests that returned an error status
  double wall_seconds = 0.0;   // first request start → last request end
  double client_seconds = 0.0; // summed over clients
  std::vector<double> latency_us;
  std::vector<Answer> answers;
  std::vector<SpanLog> logs;   // one per client (traced loops only)
};

// Runs `clients` threads, each keeping exactly one request outstanding,
// over stream positions handed out in order from a shared cursor that
// starts at `*cursor` (and is advanced past the last position used).
// Stops after `seconds` of wall time or `max_requests` requests, whichever
// comes first (0 = no limit).
LoopResult RunClosedLoop(int clients, std::size_t stream_length,
                         std::size_t* cursor, double seconds,
                         std::uint64_t max_requests, bool traced,
                         const RequestFn& request);

// 64-bit digest of a result's ranked ids and score bits.
std::uint64_t AnswerDigest(const SearchResult& result);

// ---- correctness ----------------------------------------------------------

// Checks every answer digest against the unsharded reference engine's
// answer to the same stream position (memoized per position). With
// `corrupt`, the reference answer for the first checked position is
// perturbed by one ulp, so the check must report it. Returns mismatches.
std::uint64_t CheckBitIdentical(const Engine& reference, const Stream& stream,
                                const std::vector<Answer>& answers,
                                bool corrupt);

// deep's gate: a seeded sample (about 1 in 64, at most 1000) of the
// answered stream positions is searched again on `engine`, and the answer
// must equal the loop's digest and match power-iteration ground truth
// (exact top-k up to solver precision, exact ties resolved either way).
// With `corrupt`, the first truth vector is perturbed beyond the
// tolerance. Returns mismatches; `*checked` counts the sample.
std::uint64_t CheckAgainstPowerIteration(const Engine& engine,
                                         const graph::Graph& graph,
                                         const Stream& stream,
                                         const std::vector<Answer>& answers,
                                         std::uint64_t seed, bool corrupt,
                                         std::uint64_t* checked);

// ---- per-layer ledger -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Stream positions the ledger walks.
inline constexpr std::size_t kLedgerSample = 256;

struct LedgerResult {
  std::vector<Metric> metrics;
  std::uint64_t checked = 0;     // sharded and routed answers compared
  std::uint64_t mismatches = 0;  // ... that differ from the unsharded engine
};

// Work counters and paired single-thread timings for every layer, walked
// over a seeded sample of the workload's stream: core (search work, K
// sensitivity), serving.fanout (vs the slowest shard and the unsharded
// engine), serving.router (vs the in-process fan-out), serving/wire and
// tools.proto. `unsharded` is the served or the reference engine. Adds to
// `stack` the sharded engine and router it lacks, at the budgets of the
// sharded and routed workloads.
LedgerResult RunLedger(const graph::Graph& graph, const Stream& stream,
                       std::uint64_t seed, const Engine& unsharded,
                       Stack* stack);

// The precompute replayed stage by stage with spans around the public
// stage functions (reorder, LU factor, inverses); returns reorder.s,
// lu.factor_s, lu.invert_s, lu.nnz_inv, lu.fill.
std::vector<Metric> TracePrecompute(const graph::Graph& graph,
                                    const ThreadBudget& budget, SpanLog* log);

// Percentile by nearest rank over a copy of the values.
double Percentile(std::vector<double> values, double fraction);
double Median(std::vector<double> values);

}  // namespace kdash::perfbench

#endif  // KDASH_PERFBENCH_PERFBENCH_H_
