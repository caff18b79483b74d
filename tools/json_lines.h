// The JSON-lines batch protocol shared by `kdash_cli batch` and
// `kdash_server`: one request per input line, one JSON object per output
// line, errors reported inline so a bad request never takes down the
// stream.
//
// Request line grammar (whitespace-separated):
//   <source> [<source> ...] [-- <exclude> ...] [k=<n>] [trace=1]
//   [pruning=0] [root=<node>] [deadline_us=<n>] [hex=1]
// plus the literal health request `{"ping":1}` (answered in order with a
// pong record, without touching the scheduler or the index) and the stats
// request `{"stats":1}` (answered in order with a metric-registry
// snapshot, see obs/metrics.h).
//
// The last four tokens exist for the distributed tier (serving::Router →
// worker kdash_server), though any client may use them: `pruning=0` and
// `root=<node>` carry the Query diagnostics fields that would otherwise be
// unreachable over the wire, `deadline_us=<n>` hands the server the
// request's *remaining* budget (it stamps Query::deadline n µs from
// receipt, so an expired budget comes back DEADLINE_EXCEEDED instead of as
// an answer nobody is waiting for), and `hex=1` asks for a "score_hex"
// hexfloat alongside each entry's decimal score — %.12g loses low bits,
// and the router's cross-worker merge is only bit-identical to the
// in-process ShardedEngine if scores survive the round-trip exactly.
// Response records:
//   {"id":7,"sources":[3],"k":5,"top":[{"node":9,"score":0.0123},...],
//    "visited":42,"computed":17,"tree":64,"pruned":true,"t_us":184}
//   {"id":8,"code":"INVALID_ARGUMENT","error":"source node 999 out of ...,
//    "t_us":12}
//   {"id":9,"pong":1,"t_us":3}
//   {"id":10,"stats":{"metrics":[...]},"t_us":57}
// Error records carry the canonical status-code name in "code" so clients
// can branch on DEADLINE_EXCEEDED / UNAVAILABLE / RESOURCE_EXHAUSTED
// without parsing the human-readable message. Degraded sharded results add
// "shards_failed" (complete results omit it). "t_us" is the server-side
// end-to-end latency of the request (parse → answer ready to send) and is
// present on every record kind; `trace=1` requests additionally get a
// "trace" array of per-stage spans (obs/trace.h).
#ifndef KDASH_TOOLS_JSON_LINES_H_
#define KDASH_TOOLS_JSON_LINES_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "core/engine.h"

namespace kdash::tools {

// Shared `--name=value` flag parsing for the tool binaries.
inline bool FlagValue(const std::string& arg, const char* name,
                      std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// `--name=<integer>`; false unless the whole value parses.
inline bool NumericFlag(const std::string& arg, const char* name,
                        long long* value) {
  std::string text;
  if (!FlagValue(arg, name, &text)) return false;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *value = parsed;
  return true;
}

inline std::string JsonEscape(const std::string& text) {
  std::string escaped;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      escaped += '\\';
      escaped += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      escaped += buffer;
    } else {
      escaped += ch;
    }
  }
  return escaped;
}

// One request line → a Query. Returns false with a message on a malformed
// line (the caller reports it as an error record and keeps going).
// `hex_scores`, when non-null, reports whether the line carried `hex=1`
// (the caller then formats the result record with hexfloat scores).
inline bool ParseQueryLine(const std::string& line, std::size_t default_k,
                           Query* query, std::string* error,
                           bool* hex_scores = nullptr) {
  *query = Query{};
  query->k = default_k;
  if (hex_scores != nullptr) *hex_scores = false;
  std::istringstream tokens(line);
  std::string token;
  bool excludes = false;
  while (tokens >> token) {
    if (token == "--") {
      excludes = true;
      continue;
    }
    if (token.rfind("k=", 0) == 0) {
      const std::string value = token.substr(2);
      const long long parsed = std::atoll(value.c_str());
      if (parsed <= 0) {
        *error = "bad k '" + value + "'";
        return false;
      }
      query->k = static_cast<std::size_t>(parsed);
      continue;
    }
    if (token == "trace=1") {
      query->trace = std::make_shared<obs::TraceContext>();
      continue;
    }
    if (token == "hex=1") {
      if (hex_scores != nullptr) *hex_scores = true;
      continue;
    }
    if (token == "pruning=0") {
      query->use_pruning = false;
      continue;
    }
    if (token.rfind("root=", 0) == 0) {
      const std::string value = token.substr(5);
      char* root_end = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &root_end, 10);
      if (root_end == value.c_str() || *root_end != '\0' || parsed < 0 ||
          parsed > std::numeric_limits<NodeId>::max()) {
        *error = "bad root '" + value + "'";
        return false;
      }
      query->root_override = static_cast<NodeId>(parsed);
      continue;
    }
    if (token.rfind("deadline_us=", 0) == 0) {
      // The wire carries the *remaining* budget, not an absolute time —
      // two hosts share no clock. Receipt is the budget's new epoch; a
      // non-positive budget arrives already expired.
      const std::string value = token.substr(12);
      char* deadline_end = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &deadline_end, 10);
      if (deadline_end == value.c_str() || *deadline_end != '\0') {
        *error = "bad deadline_us '" + value + "'";
        return false;
      }
      query->deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(parsed);
      continue;
    }
    char* end = nullptr;
    const long long id = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      *error = "bad token '" + token + "'";
      return false;
    }
    if (id < std::numeric_limits<NodeId>::min() ||
        id > std::numeric_limits<NodeId>::max()) {
      *error = "node id '" + token + "' out of range";
      return false;
    }
    (excludes ? query->exclude : query->sources)
        .push_back(static_cast<NodeId>(id));
  }
  return true;
}

// Appends `,"t_us":N` when the caller measured a server-side latency;
// t_us < 0 (the default everywhere) omits the field, so offline callers
// (tests, simple scripts) keep byte-stable records.
inline void AppendLatencyField(std::string* record, long long t_us) {
  if (t_us >= 0) *record += ",\"t_us\":" + std::to_string(t_us);
}

// Error record with a machine-readable code field. The string overload is
// for client-side parse failures, which are kInvalidArgument by definition.
inline std::string FormatErrorRecord(long long id, const Status& status,
                                     long long t_us = -1) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"code\":\"" +
                       StatusCodeName(status.code()) + "\",\"error\":\"" +
                       JsonEscape(status.message()) + "\"";
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

inline std::string FormatErrorRecord(long long id, const std::string& message,
                                     long long t_us = -1) {
  return FormatErrorRecord(id, Status::InvalidArgument(message), t_us);
}

// Pong record, optionally carrying the responder's serving footprint:
// `shards` (how many index shards this process serves — the router weighs
// a worker's success/failure in shard units so its shards_ok/shards_failed
// accounting matches an in-process ShardedEngine) and `nodes` (how many
// node ids those shards own). Negative values omit the field.
inline std::string FormatPongRecord(long long id, long long t_us = -1,
                                    int shards = -1, long long nodes = -1) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"pong\":1";
  if (shards >= 0) record += ",\"shards\":" + std::to_string(shards);
  if (nodes >= 0) record += ",\"nodes\":" + std::to_string(nodes);
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

// Stats record: `stats_json` is a pre-rendered JSON object (the registry's
// SnapshotToJson()), embedded verbatim.
inline std::string FormatStatsRecord(long long id,
                                     const std::string& stats_json,
                                     long long t_us = -1) {
  std::string record =
      "{\"id\":" + std::to_string(id) + ",\"stats\":" + stats_json;
  AppendLatencyField(&record, t_us);
  record += "}";
  return record;
}

namespace internal {
// Exact-match line requests (after trimming blanks): the two JSON command
// literals clients may interleave with query lines.
inline bool IsLiteralLine(const std::string& line, const char* literal) {
  std::size_t begin = line.find_first_not_of(" \t");
  std::size_t end = line.find_last_not_of(" \t");
  if (begin == std::string::npos) return false;
  return line.compare(begin, end - begin + 1, literal) == 0;
}
}  // namespace internal

// The literal health-request line (exact match after trimming whitespace).
inline bool IsPingLine(const std::string& line) {
  return internal::IsLiteralLine(line, "{\"ping\":1}");
}

// The literal stats-request line: answered with the process metric
// registry's snapshot.
inline bool IsStatsLine(const std::string& line) {
  return internal::IsLiteralLine(line, "{\"stats\":1}");
}

// `hex_scores` (the `hex=1` request token) adds a "score_hex" hexfloat
// (%a) next to each entry's human-readable decimal score; strtod parses it
// back to the bit-identical double, which the distributed merge requires.
inline std::string FormatResultRecord(long long id, const Query& query,
                                      const SearchResult& result,
                                      long long t_us = -1,
                                      bool hex_scores = false) {
  std::string record = "{\"id\":" + std::to_string(id) + ",\"sources\":[";
  for (std::size_t i = 0; i < query.sources.size(); ++i) {
    if (i > 0) record += ',';
    record += std::to_string(query.sources[i]);
  }
  record += "],\"k\":" + std::to_string(query.k) + ",\"top\":[";
  char buffer[128];
  for (std::size_t i = 0; i < result.top.size(); ++i) {
    if (i > 0) record += ',';
    std::snprintf(buffer, sizeof(buffer), "{\"node\":%d,\"score\":%.12g",
                  result.top[i].node, result.top[i].score);
    record += buffer;
    if (hex_scores) {
      std::snprintf(buffer, sizeof(buffer), ",\"score_hex\":\"%a\"",
                    result.top[i].score);
      record += buffer;
    }
    record += '}';
  }
  record += "],\"visited\":" + std::to_string(result.stats.nodes_visited) +
            ",\"computed\":" +
            std::to_string(result.stats.proximity_computations) +
            ",\"tree\":" + std::to_string(result.stats.tree_size) +
            ",\"pruned\":" +
            (result.stats.terminated_early ? "true" : "false");
  if (result.degraded()) {
    // Partial top-k (graceful degradation): callers that need completeness
    // must check for this field.
    record += ",\"shards_ok\":" + std::to_string(result.shards_ok) +
              ",\"shards_failed\":" + std::to_string(result.shards_failed);
  }
  AppendLatencyField(&record, t_us);
  if (query.trace != nullptr) {
    record += ",\"trace\":" + query.trace->ToJson();
  }
  record += "}";
  return record;
}

}  // namespace kdash::tools

#endif  // KDASH_TOOLS_JSON_LINES_H_
