// Workloads, their thread budgets, and the seeded inputs they run on.
#include <algorithm>
#include <string>

#include "common/random.h"
#include "graph/generators.h"
#include "perfbench.h"

namespace kdash::perfbench {

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDeep: return "deep";
    case Workload::kHot: return "hot";
    case Workload::kSharded: return "sharded";
    case Workload::kRouted: return "routed";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const Workload w : {Workload::kDeep, Workload::kHot, Workload::kSharded,
                           Workload::kRouted}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

ThreadBudget BudgetFor(Workload workload) {
  ThreadBudget budget;
  budget.build_threads = 4;
  switch (workload) {
    case Workload::kDeep:
      budget.clients = 2;
      budget.search_threads = 1;
      budget.program_threads = 0;  // searches run on the client threads
      break;
    case Workload::kHot:
      budget.clients = 2;
      budget.search_threads = 1;
      // The scheduler thread; a 1-thread search pool runs each batch
      // inline on it.
      budget.program_threads = 1;
      break;
    case Workload::kSharded:
      budget.clients = 2;
      budget.search_threads = 2;
      budget.program_threads = 2;  // the fan-out pool
      break;
    case Workload::kRouted:
      budget.clients = 1;
      budget.search_threads = 2;  // the in-process fan-out the ledger compares
      budget.io_threads = 2;
      // One busy chain per slot: router IO thread -> worker connection ->
      // worker scheduler -> shard search, one stage at a time while the
      // client keeps one request outstanding.
      budget.program_threads = 2;
      break;
  }
  return budget;
}

graph::Graph MakeGraph(NodeId num_nodes) {
  Rng rng(42);
  return graph::PowerLawCluster(num_nodes, 6, 0.6, /*directed=*/true, 0.4,
                                rng);
}

namespace {

std::string RequestLine(const Query& query) {
  std::string line;
  for (const NodeId source : query.sources) {
    line += std::to_string(source) + ' ';
  }
  if (!query.exclude.empty()) {
    line += "--";
    for (const NodeId node : query.exclude) line += ' ' + std::to_string(node);
    line += ' ';
  }
  line += "k=" + std::to_string(query.k);
  return line;
}

// Uniform sources, the paper's K values, 10% personalized, 10% excluding
// the out-neighbours (the examples/recommendation pattern).
Query DeepQuery(const graph::Graph& graph, Rng& rng) {
  static constexpr std::size_t kPaperK[] = {5, 10, 25, 50};
  const NodeId n = graph.num_nodes();
  const std::size_t k = kPaperK[rng.NextBounded(4)];
  const double kind = rng.NextDouble();
  if (kind < 0.1) {
    std::vector<NodeId> sources;
    while (sources.size() < 3) {
      const NodeId source = rng.NextNode(n);
      if (std::find(sources.begin(), sources.end(), source) == sources.end()) {
        sources.push_back(source);
      }
    }
    return Query::Personalized(std::move(sources), k);
  }
  Query query = Query::Single(rng.NextNode(n), k);
  if (kind < 0.2) {
    for (const graph::Neighbor& nb : graph.OutNeighbors(query.sources[0])) {
      query.exclude.push_back(nb.node);
    }
    std::sort(query.exclude.begin(), query.exclude.end());
    query.exclude.erase(std::unique(query.exclude.begin(), query.exclude.end()),
                        query.exclude.end());
  }
  return query;
}

}  // namespace

Stream MakeStream(Workload workload, const graph::Graph& graph,
                  std::uint64_t seed, std::size_t length) {
  Stream stream;
  stream.queries.reserve(length);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  if (workload != Workload::kHot) {
    while (stream.queries.size() < length) {
      stream.queries.push_back(DeepQuery(graph, rng));
    }
  } else {
    // Popularity follows out-degree; a trending set of 8 nodes, redrawn
    // every 512 requests, takes 25% of the traffic.
    std::vector<double> cumulative(static_cast<std::size_t>(graph.num_nodes()));
    double total = 0.0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      total += static_cast<double>(graph.OutNeighbors(u).size());
      cumulative[static_cast<std::size_t>(u)] = total;
    }
    const auto weighted = [&] {
      const auto at = std::upper_bound(cumulative.begin(), cumulative.end(),
                                       rng.NextDouble() * total);
      return static_cast<NodeId>(
          std::min<std::ptrdiff_t>(at - cumulative.begin(),
                                   graph.num_nodes() - 1));
    };
    std::vector<NodeId> trending(8);
    while (stream.queries.size() < length) {
      if (stream.queries.size() % 512 == 0) {
        for (NodeId& hot : trending) hot = weighted();
      }
      const NodeId source = rng.NextDouble() < 0.25
                                ? trending[rng.NextBounded(trending.size())]
                                : weighted();
      stream.queries.push_back(Query::Single(source, 10));
    }
  }
  stream.lines.reserve(length);
  for (const Query& query : stream.queries) {
    stream.lines.push_back(RequestLine(query));
  }
  return stream;
}

}  // namespace kdash::perfbench
