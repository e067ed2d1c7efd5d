#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "stats.h"
#include "util/status.h"

namespace perfbench {

/// Performs request `i` on one connection and returns Ok for a
/// successful answer. A caller that can only judge an answer's bytes
/// after the run marks a wrong one failed (`ok = false`) and calls Tally
/// again. Called from that connection's sending thread only.
using SendFn = std::function<pae::Status(size_t i)>;
/// Opens connection `c`. A failed connect (refused, missing socket)
/// fails every request scheduled on that connection.
using ConnectFn = std::function<pae::Result<SendFn>(int c)>;

struct OpenLoopOptions {
  double rate_qps = 25;
  size_t requests = 250;
  /// Request i goes to connection i % connections, one sending thread per
  /// connection.
  int connections = 2;
  /// A request still unsent or unanswered this long after the last due
  /// time has missed its window and fails.
  double grace_seconds = 2.0;
  /// Client latency limit (ms) a request must meet to count as in-SLO.
  double limit_ms = 20;
  /// Stop sending once more than this many requests missed the limit
  /// (the rung can no longer meet it). Requests skipped that way are
  /// neither sent nor failed. SIZE_MAX = never stop early.
  size_t stop_after_misses = SIZE_MAX;
};

struct RequestRecord {
  int64_t due_ns = 0;    // offset from the schedule start
  int64_t sent_ns = -1;  // -1 = never sent
  int64_t done_ns = -1;  // -1 = never answered
  bool ok = false;
  bool skipped = false;  // not sent: the rung had already missed its SLO
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;   // error, refused, wrong answer, or window missed
  size_t skipped = 0;
  size_t misses = 0;   // failed + answered later than the limit
  /// Latency of every OK request, measured from its due time (ms).
  LatencySummary latency;
  /// How late the generator sent requests (send − due, ms).
  LatencySummary generator_late;
  /// OK responses per second over [first due, last answer].
  double goodput_qps = 0;
};

/// Recounts sent, ok, failed, skipped, misses, the latency summaries and
/// goodput from `result->records` (a request that is not skipped misses
/// when it failed or took longer than `options.limit_ms`).
void Tally(const OpenLoopOptions& options, OpenLoopResult* result);

/// Drives the fixed schedule: request i is due i / rate_qps seconds
/// after the start, and its latency is taken from that due time, so a
/// stall also charges the requests queued behind it. Connections are
/// opened before the clock starts.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const ConnectFn& connect);

/// Saturation probe: each connection sends its share of
/// `options.requests` (request i on connection i % connections) back to
/// back, without pacing, until `seconds` have passed; requests not sent
/// by then are skipped, not failed. A request is due when it is sent, so
/// its latency is its service time, and goodput_qps is the rate the
/// server and transport sustain with that many connections. A refused
/// connection fails its first request and sends nothing. rate_qps,
/// grace_seconds and stop_after_misses are not used.
OpenLoopResult RunClosedLoop(const OpenLoopOptions& options, double seconds,
                             const ConnectFn& connect);

/// One rung of the offered-rate ladder meets the SLO when at most 1% of
/// its requests miss the limit (a failed request misses), it was not cut
/// short, and the backlog did not grow: the generator's median lateness
/// over the rung's last tenth exceeds that over its first tenth by at
/// most a tenth of the limit.
bool MeetsSlo(const OpenLoopOptions& options, const OpenLoopResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
