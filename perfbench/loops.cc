// Closed-loop load generation and span bookkeeping.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "perfbench.h"

namespace kdash::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kCore: return "core";
    case Layer::kScheduler: return "serving.scheduler";
    case Layer::kFanout: return "serving.fanout";
    case Layer::kRouter: return "serving.router";
    case Layer::kProto: return "tools.proto";
    case Layer::kReorder: return "reorder";
    case Layer::kLu: return "lu";
    case Layer::kSetup: return "setup";
    case Layer::kCount: break;
  }
  return "?";
}

void AccumulateSelfTimes(const SpanLog& log, LayerTotals* totals) {
  const std::vector<Span>& spans = log.spans();
  // Children never overlap one another here (each span tree is walked by
  // one thread), so the part of a
  // parent's interval its children cover is the sum of their clipped
  // durations.
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const auto start = std::max(span.start, parent.start);
    const auto end = std::min(span.end, parent.end);
    if (end > start) {
      covered[static_cast<std::size_t>(span.parent)] +=
          std::chrono::duration<double, std::micro>(end - start).count();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int layer = static_cast<int>(spans[i].layer);
    totals->total_us[layer] += spans[i].micros();
    totals->self_us[layer] += std::max(0.0, spans[i].micros() - covered[i]);
    ++totals->count[layer];
  }
}

void WriteSpans(const SpanLog& log, int thread, Clock::time_point epoch,
                std::string* out) {
  char line[256];
  for (const Span& span : log.spans()) {
    std::snprintf(
        line, sizeof(line),
        "{\"thread\":%d,\"request\":%llu,\"parent\":%d,\"layer\":\"%s\","
        "\"what\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
        thread, static_cast<unsigned long long>(span.request), span.parent,
        LayerName(span.layer), span.what,
        std::chrono::duration<double, std::micro>(span.start - epoch).count(),
        std::chrono::duration<double, std::micro>(span.end - epoch).count());
    out->append(line);
  }
}

std::uint64_t AnswerDigest(const SearchResult& result) {
  // FNV-1a over (id, score bits) pairs.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(result.top.size());
  for (const ScoredNode& entry : result.top) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &entry.score, sizeof(bits));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(entry.node)));
    mix(bits);
  }
  return hash;
}

LoopResult RunClosedLoop(int clients, std::size_t stream_length,
                         std::size_t* cursor, double seconds,
                         std::uint64_t max_requests, bool traced,
                         const RequestFn& request) {
  struct PerClient {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double busy_seconds = 0.0;
    Clock::time_point first_start = Clock::time_point::max();
    Clock::time_point last_end = Clock::time_point::min();
    std::vector<double> latency_us;
    std::vector<Answer> answers;
    SpanLog log;
  };
  std::vector<PerClient> per_client(static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> next{*cursor};
  const std::uint64_t first = *cursor;
  std::atomic<bool> go{false};
  const auto duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  Clock::time_point stop_at;

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = per_client[static_cast<std::size_t>(c)];
      mine.latency_us.reserve(1 << 16);
      mine.answers.reserve(1 << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point begin = Clock::now();
      for (;;) {
        const std::uint64_t position =
            next.fetch_add(1, std::memory_order_relaxed);
        if (max_requests > 0 && position - first >= max_requests) break;
        const Clock::time_point start = Clock::now();
        if (start >= stop_at) break;
        SpanLog* log = traced ? &mine.log : nullptr;
        std::int32_t root = -1;
        if (log != nullptr) {
          root = log->Open(position, -1, Layer::kRequest, "request");
        }
        const std::size_t at = static_cast<std::size_t>(position % stream_length);
        const Result<SearchResult> result = request(at, log, root);
        const Clock::time_point end = Clock::now();
        if (log != nullptr) log->Close(root);
        if (mine.attempted++ == 0) mine.first_start = start;
        mine.last_end = end;
        mine.latency_us.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
        if (result.ok()) {
          mine.answers.push_back({at, AnswerDigest(*result)});
        } else {
          ++mine.failed;
        }
      }
      mine.busy_seconds =
          std::chrono::duration<double>(Clock::now() - begin).count();
    });
  }
  stop_at = Clock::now() + duration;
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  LoopResult result;
  Clock::time_point first_start = Clock::time_point::max();
  Clock::time_point last_end = Clock::time_point::min();
  for (PerClient& mine : per_client) {
    result.attempted += mine.attempted;
    result.failed += mine.failed;
    result.client_seconds += mine.busy_seconds;
    first_start = std::min(first_start, mine.first_start);
    last_end = std::max(last_end, mine.last_end);
    result.latency_us.insert(result.latency_us.end(), mine.latency_us.begin(),
                             mine.latency_us.end());
    result.answers.insert(result.answers.end(), mine.answers.begin(),
                          mine.answers.end());
    result.logs.push_back(std::move(mine.log));
  }
  if (result.attempted > 0) {
    result.wall_seconds =
        std::chrono::duration<double>(last_end - first_start).count();
  }
  *cursor = static_cast<std::size_t>(next.load());
  return result;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least `fraction` of the
  // sample at or below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace kdash::perfbench
