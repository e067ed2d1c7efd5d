#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace perfbench {

/// One timed interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int64_t start_ns = 0;  // since the tracer was created
  int64_t end_ns = 0;
};

/// Per-name totals. Self time is a span's duration minus the time its
/// child spans cover.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out in one go, so recording costs a clock read and one
/// locked append per span. Thread-safe.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t Now() const;
  void Record(Span span);

  std::vector<Span> Spans() const;
  std::map<std::string, SpanTotals> Totals() const;
  /// Writes every span as one JSON object per line.
  pae::Status WriteJsonLines(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable pae::util::Mutex mutex_;
  std::vector<Span> spans_ PAE_GUARDED_BY(mutex_);
};

/// Records a span from construction to destruction (or End()). A null
/// tracer makes it a no-op, which is how untraced runs stay untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = 0,
             int64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  void End();

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
