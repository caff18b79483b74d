// Per-layer numbers that need a paired comparison or a deterministic count:
// the precompute replayed stage by stage, and a seeded sample of the
// workload's stream walked through every layer one call at a time.
#include "common/check.h"
#include "common/random.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "perfbench.h"
#include "reorder/reorder.h"
#include "serving/wire.h"
#include "sparse/permute.h"
#include "tools/json_lines.h"

namespace kdash::perfbench {
namespace {

// Times `calls` back-to-back invocations of `fn` and returns µs per call:
// the shortest protocol and wire calls take well under a microsecond, near
// what one steady_clock pair resolves.
template <typename Fn>
double MicrosPerCall(int calls, const Fn& fn) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < calls; ++i) fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         calls;
}

double Micros(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

std::vector<Metric> TracePrecompute(const graph::Graph& graph,
                                    const ThreadBudget& budget, SpanLog* log) {
  const core::KDashOptions defaults;
  const int threads = budget.build_threads;
  const std::int32_t root =
      log->Open(0, -1, Layer::kSetup, "precompute stages");
  // Runs one stage under a span and returns its seconds.
  const auto stage = [log, root](Layer layer, const char* what,
                                 const auto& run) {
    const std::int32_t span = log->Child(root, layer, what);
    run();
    log->Close(span);
    return log->spans()[static_cast<std::size_t>(span)].micros() * 1e-6;
  };

  const sparse::CscMatrix a = graph.NormalizedAdjacency();
  reorder::ReorderOptions reorder_options;
  reorder_options.seed = defaults.seed;
  reorder_options.num_threads = threads;
  reorder::Reordering reordering;
  const double reorder_s =
      stage(Layer::kReorder, "reorder::ComputeReordering", [&] {
        reordering = reorder::ComputeReordering(graph, defaults.reorder_method,
                                                reorder_options);
      });

  const sparse::CscMatrix w = lu::BuildRwrSystemMatrix(
      sparse::PermuteSymmetric(a, reordering.new_of_old),
      defaults.restart_prob);
  lu::LuFactors factors;
  const double factor_s = stage(Layer::kLu, "lu::FactorizeLu", [&] {
    factors = lu::FactorizeLu(w, lu::LuOptions{threads});
  });
  Index nnz_inv = 0;
  const double invert_s =
      stage(Layer::kLu, "lu::InvertLowerTriangular", [&] {
        nnz_inv += lu::InvertLowerTriangular(factors.lower, 0.0, threads).nnz();
      }) +
      stage(Layer::kLu, "lu::InvertUpperTriangular", [&] {
        nnz_inv += lu::InvertUpperTriangular(factors.upper, 0.0, threads).nnz();
      });
  log->Close(root);

  return {
      {"reorder.s", reorder_s, "s"},
      {"lu.factor_s", factor_s, "s"},
      {"lu.invert_s", invert_s, "s"},
      {"lu.nnz_inv", static_cast<double>(nnz_inv), "count"},
      {"lu.fill",
       static_cast<double>(nnz_inv) / static_cast<double>(graph.num_edges()),
       "nnz/edge"},
  };
}

LedgerResult RunLedger(const graph::Graph& graph, const Stream& stream,
                       std::uint64_t seed, const Engine& engine,
                       Stack* stack) {
  if (!stack->sharded.has_value()) {
    BuildStack(Workload::kSharded, graph, BudgetFor(Workload::kSharded), stack);
  }
  if (stack->router == nullptr) {
    ConnectRouter(BudgetFor(Workload::kRouted), stack);
  }
  const serving::ShardedEngine& sharded = *stack->sharded;
  const serving::Router& router = *stack->router;

  Rng rng(seed ^ 0x5eed1ed6e7ULL);
  std::vector<std::size_t> sample(kLedgerSample);
  for (std::size_t& position : sample) {
    position = static_cast<std::size_t>(rng.NextBounded(stream.queries.size()));
  }

  LedgerResult out;
  std::vector<double> search_us, fanout_us, critical_us, fanout_overhead_us,
      router_us, router_overhead_us, wire_format_us, wire_parse_us,
      parse_us, format_us;
  double visited = 0, prox = 0, tree = 0, early = 0, returned = 0;
  double shard_visited = 0, shard_prox = 0;
  double k5_prox = 0, k50_prox = 0, single_source = 0;
  const std::uint64_t skipped_before = sharded.shards_skipped();

  for (const std::size_t position : sample) {
    const Query& query = stream.queries[position];

    // core: one unsharded search, its work counters, and K sensitivity.
    Clock::time_point start = Clock::now();
    auto base = engine.Search(query);
    search_us.push_back(Micros(start));
    KDASH_CHECK(base.ok()) << base.status();
    visited += base->stats.nodes_visited;
    prox += base->stats.proximity_computations;
    tree += base->stats.tree_size;
    early += base->stats.terminated_early ? 1 : 0;
    returned += static_cast<double>(base->top.size());
    if (query.sources.size() == 1) {
      Query at_k = query;
      for (const std::size_t k : {std::size_t{5}, std::size_t{50}}) {
        at_k.k = k;
        auto result = engine.Search(at_k);
        KDASH_CHECK(result.ok()) << result.status();
        (k == 5 ? k5_prox : k50_prox) += result->stats.proximity_computations;
      }
      ++single_source;
    }

    // serving.fanout against its slowest shard and the unsharded search.
    start = Clock::now();
    auto fanned = sharded.Search(query);
    const double fanout = Micros(start);
    KDASH_CHECK(fanned.ok()) << fanned.status();
    double critical = 0.0;
    SearchResult shard_zero;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      start = Clock::now();
      auto partial = sharded.shard(s).Search(query);
      critical = std::max(critical, Micros(start));
      KDASH_CHECK(partial.ok()) << partial.status();
      if (s == 0) shard_zero = std::move(*partial);
    }
    fanout_us.push_back(fanout);
    critical_us.push_back(critical);
    fanout_overhead_us.push_back(fanout - critical);
    shard_visited += fanned->stats.nodes_visited;
    shard_prox += fanned->stats.proximity_computations;

    // serving.router against the in-process fan-out, and its wire codec.
    start = Clock::now();
    auto routed = router.Search(query);
    const double route = Micros(start);
    KDASH_CHECK(routed.ok()) << routed.status();
    router_us.push_back(route);
    router_overhead_us.push_back(route - fanout);
    wire_format_us.push_back(MicrosPerCall(16, [&] {
      const std::string line = serving::wire::FormatRequestLine(query);
      KDASH_CHECK(!line.empty());
    }));
    const std::string record = tools::FormatResultRecord(
        0, query, shard_zero, -1, /*hex_scores=*/true);
    wire_parse_us.push_back(MicrosPerCall(16, [&] {
      KDASH_CHECK(serving::wire::ParseRecordLine(record).ok());
    }));

    // tools.proto: the server's request parse and record format.
    Query parsed;
    std::string error;
    parse_us.push_back(MicrosPerCall(16, [&] {
      KDASH_CHECK(tools::ParseQueryLine(stream.lines[position], 5, &parsed,
                                        &error));
    }));
    format_us.push_back(MicrosPerCall(16, [&] {
      const std::string line = tools::FormatResultRecord(0, query, *base);
      KDASH_CHECK(!line.empty());
    }));

    // Both scale-out paths must reproduce the unsharded answer bit for bit.
    out.checked += 2;
    const std::uint64_t want = AnswerDigest(*base);
    out.mismatches += AnswerDigest(*fanned) != want;
    out.mismatches += AnswerDigest(*routed) != want;
  }

  const double n = static_cast<double>(sample.size());
  const double slots = n * sharded.num_shards();
  out.metrics = {
      {"search.us", Median(search_us), "us"},
      {"search.visited_per_q", visited / n, "count"},
      {"search.prox_per_q", prox / n, "count"},
      {"search.tree_per_q", tree / n, "count"},
      {"search.early_frac", early / n, "fraction"},
      {"search.prox_per_result", Ratio(prox, returned), "ratio"},
      {"search.prox_per_q.k5", Ratio(k5_prox, single_source), "count"},
      {"search.prox_per_q.k50", Ratio(k50_prox, single_source), "count"},
      {"fanout.us", Median(fanout_us), "us"},
      {"fanout.critical_us", Median(critical_us), "us"},
      {"fanout.overhead_us", Median(fanout_overhead_us), "us"},
      {"fanout.visited_ratio", Ratio(shard_visited, visited), "ratio"},
      {"fanout.prox_ratio", Ratio(shard_prox, prox), "ratio"},
      {"fanout.skipped_frac",
       static_cast<double>(sharded.shards_skipped() - skipped_before) / slots,
       "fraction"},
      {"router.us", Median(router_us), "us"},
      {"router.overhead_us", Median(router_overhead_us), "us"},
      {"wire.format_us", Median(wire_format_us), "us"},
      {"wire.parse_us", Median(wire_parse_us), "us"},
      {"proto.parse_us", Median(parse_us), "us"},
      {"proto.format_us", Median(format_us), "us"},
  };
  return out;
}

}  // namespace kdash::perfbench
