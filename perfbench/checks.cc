// Correctness gates: every checked answer either matches its reference or
// counts as a failed operation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>

#include "common/check.h"
#include "common/random.h"
#include "perfbench.h"
#include "rwr/power_iteration.h"

namespace kdash::perfbench {

std::uint64_t CheckBitIdentical(const Engine& reference, const Stream& stream,
                                const std::vector<Answer>& answers,
                                bool corrupt) {
  // Reference digests, computed once per distinct stream position on a few
  // threads (this runs after the timed phase).
  std::vector<std::size_t> positions;
  positions.reserve(answers.size());
  for (const Answer& answer : answers) positions.push_back(answer.position);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  std::vector<std::uint64_t> digest(stream.queries.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < positions.size(); i = next++) {
        const std::size_t at = positions[i];
        auto result = reference.Search(stream.queries[at]);
        if (!result.ok()) {
          ++errors;
          continue;
        }
        if (corrupt && at == positions.front()) {
          // A deliberately wrong reference: the gate must report it.
          if (result->top.empty()) result->top.push_back({0, 1.0});
          Scalar& score = result->top.front().score;
          score = std::nextafter(score, 2.0);
        }
        digest[at] = AnswerDigest(*result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  KDASH_CHECK(errors.load() == 0) << "reference engine rejected a query";

  std::uint64_t mismatches = 0;
  for (const Answer& answer : answers) {
    if (answer.digest == digest[answer.position]) continue;
    if (mismatches++ == 0) {
      std::cerr << "mismatch at stream position " << answer.position << ": "
                << stream.lines[answer.position] << "\n";
    }
  }
  return mismatches;
}

namespace {

constexpr Scalar kTieTolerance = 1e-9;

// Exact top-k of the allowed nodes by power iteration, ranked like the
// library (score desc, id asc), unreachable nodes dropped.
std::vector<ScoredNode> TruthTopK(const sparse::CscMatrix& a,
                                  const Query& query, bool corrupt) {
  std::vector<Scalar> restart(static_cast<std::size_t>(a.cols()), 0.0);
  for (const NodeId source : query.sources) {
    restart[static_cast<std::size_t>(source)] +=
        1.0 / static_cast<Scalar>(query.sources.size());
  }
  rwr::PowerIterationOptions options;
  options.tolerance = 1e-14;
  options.max_iterations = 20000;
  std::vector<Scalar> proximity = rwr::SolveRwrVector(a, restart, options).proximity;
  for (const NodeId node : query.exclude) {
    proximity[static_cast<std::size_t>(node)] = 0.0;
  }
  std::vector<ScoredNode> all;
  for (std::size_t u = 0; u < proximity.size(); ++u) {
    if (proximity[u] >= 1e-13) all.push_back({static_cast<NodeId>(u), proximity[u]});
  }
  std::sort(all.begin(), all.end(), RanksHigher);
  if (all.size() > query.k) all.resize(query.k);
  if (corrupt && !all.empty()) all.front().score += 1e-3;
  return all;
}

// The comparison of tests/kdash_exactness_test.cc: rank-by-rank scores to
// solver precision; a differing node only as an exact-tie swap.
bool MatchesTruth(const std::vector<ScoredNode>& got,
                  const std::vector<ScoredNode>& truth) {
  if (got.size() != truth.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i].score - truth[i].score) > kTieTolerance) return false;
    if (got[i].node == truth[i].node) continue;
    const bool tie_swap =
        std::any_of(truth.begin(), truth.end(),
                    [&](const ScoredNode& other) {
                      return other.node == got[i].node &&
                             std::abs(other.score - got[i].score) <
                                 kTieTolerance;
                    }) ||
        std::abs(got[i].score - truth.back().score) < kTieTolerance;
    if (!tie_swap) return false;
  }
  return true;
}

}  // namespace

std::uint64_t CheckAgainstPowerIteration(const Engine& engine,
                                         const graph::Graph& graph,
                                         const Stream& stream,
                                         const std::vector<Answer>& answers,
                                         std::uint64_t seed, bool corrupt,
                                         std::uint64_t* checked) {
  const sparse::CscMatrix a = graph.NormalizedAdjacency();
  std::uint64_t mismatches = 0;
  *checked = 0;
  for (const Answer& answer : answers) {
    if (*checked >= 1000) break;
    Rng pick(seed ^ (answer.position * 0x9e3779b97f4a7c15ULL));
    if (pick.NextBounded(64) != 0) continue;
    const Query& query = stream.queries[answer.position];
    const auto again = engine.Search(query);
    const bool ok =
        again.ok() && AnswerDigest(*again) == answer.digest &&
        MatchesTruth(again->top, TruthTopK(a, query, corrupt && *checked == 0));
    ++*checked;
    if (ok) continue;
    if (mismatches++ == 0) {
      std::cerr << "ground-truth mismatch at stream position "
                << answer.position << ": " << stream.lines[answer.position]
                << "\n";
    }
  }
  return mismatches;
}

}  // namespace kdash::perfbench
