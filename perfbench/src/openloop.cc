#include "openloop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Sleeps until shortly before `due`, then spins: a thread woken from a
/// plain sleep can be a millisecond late, which would be charged to the
/// system under test as latency from the due time.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const ConnectFn& connect) {
  OpenLoopResult result;
  const size_t n = options.requests;
  result.records.resize(n);
  const double period_ns = 1e9 / options.rate_qps;
  for (size_t i = 0; i < n; ++i) {
    result.records[i].due_ns =
        std::llround(static_cast<double>(i) * period_ns);
  }
  const int connections = std::max(1, options.connections);
  std::vector<pae::Result<SendFn>> sends;
  sends.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) sends.push_back(connect(c));

  const int64_t limit_ns = std::llround(options.limit_ms * 1e6);
  const int64_t close_ns =
      (n == 0 ? 0 : result.records.back().due_ns) +
      std::llround(options.grace_seconds * 1e9);
  std::atomic<size_t> misses{0};
  std::atomic<bool> stop{false};
  auto note_miss = [&] {
    if (misses.fetch_add(1, std::memory_order_relaxed) + 1 >
        options.stop_after_misses) {
      stop.store(true, std::memory_order_relaxed);
    }
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> senders;
  senders.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      const size_t conn = static_cast<size_t>(c);
      for (size_t i = conn; i < n; i += static_cast<size_t>(connections)) {
        RequestRecord& rec = result.records[i];
        if (!sends[conn].ok()) {  // refused: fails, misses the limit
          note_miss();
          continue;
        }
        if (stop.load(std::memory_order_relaxed)) {
          rec.skipped = true;
          continue;
        }
        WaitUntil(start + std::chrono::nanoseconds(rec.due_ns));
        const int64_t now = NanosSince(start);
        if (now > close_ns) {  // still unsent when the window closed
          note_miss();
          continue;
        }
        rec.sent_ns = now;
        const pae::Status status = sends[conn].value()(i);
        rec.done_ns = NanosSince(start);
        rec.ok = status.ok() && rec.done_ns <= close_ns;
        if (!rec.ok || rec.done_ns - rec.due_ns > limit_ns) note_miss();
      }
    });
  }
  for (std::thread& t : senders) t.join();
  Tally(options, &result);
  return result;
}

void Tally(const OpenLoopOptions& options, OpenLoopResult* result) {
  OpenLoopResult& r = *result;
  r.sent = r.ok = r.failed = r.skipped = r.misses = 0;
  r.goodput_qps = 0;
  const int64_t limit_ns = std::llround(options.limit_ms * 1e6);
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  int64_t last_done = 0;
  for (const RequestRecord& rec : r.records) {
    if (rec.skipped) {
      ++r.skipped;
      continue;
    }
    if (rec.sent_ns >= 0) {
      ++r.sent;
      late_ms.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) / 1e6);
    }
    if (!rec.ok) {
      ++r.failed;
      ++r.misses;
      continue;
    }
    ++r.ok;
    if (rec.done_ns - rec.due_ns > limit_ns) ++r.misses;
    latency_ms.push_back(static_cast<double>(rec.done_ns - rec.due_ns) / 1e6);
    last_done = std::max(last_done, rec.done_ns);
  }
  r.latency = Summarize(latency_ms);
  r.generator_late = Summarize(late_ms);
  if (last_done > 0) {
    r.goodput_qps =
        static_cast<double>(r.ok) / (static_cast<double>(last_done) / 1e9);
  }
}

OpenLoopResult RunClosedLoop(const OpenLoopOptions& options, double seconds,
                             const ConnectFn& connect) {
  OpenLoopResult result;
  const size_t n = options.requests;
  result.records.resize(n);
  const int connections = std::max(1, options.connections);
  std::vector<pae::Result<SendFn>> sends;
  sends.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) sends.push_back(connect(c));

  const int64_t stop_ns = std::llround(seconds * 1e9);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> senders;
  senders.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      const size_t conn = static_cast<size_t>(c);
      for (size_t i = conn; i < n; i += static_cast<size_t>(connections)) {
        RequestRecord& rec = result.records[i];
        if (!sends[conn].ok()) {  // refused: the first request fails
          rec.skipped = i != conn;
          continue;
        }
        const int64_t now = NanosSince(start);
        if (now >= stop_ns) {
          rec.skipped = true;
          continue;
        }
        rec.due_ns = rec.sent_ns = now;
        const pae::Status status = sends[conn].value()(i);
        rec.done_ns = NanosSince(start);
        rec.ok = status.ok();
      }
    });
  }
  for (std::thread& t : senders) t.join();
  Tally(options, &result);
  return result;
}

bool MeetsSlo(const OpenLoopOptions& options, const OpenLoopResult& result) {
  if (result.skipped > 0 || result.records.empty()) return false;
  const size_t n = result.records.size();
  if (result.misses > n / 100) return false;
  // Growing backlog: the generator falls further behind over the rung.
  // Medians of the first and last tenth ignore a single transient stall.
  const size_t tenth = std::max<size_t>(1, n / 10);
  auto median_late = [&](size_t begin) {
    std::vector<double> late;
    for (size_t i = begin; i < begin + tenth; ++i) {
      const RequestRecord& rec = result.records[i];
      if (rec.sent_ns < 0) continue;
      late.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) / 1e6);
    }
    return Median(late);
  };
  return median_late(n - tenth) - median_late(0) <= options.limit_ms / 10;
}

}  // namespace perfbench
