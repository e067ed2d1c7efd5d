#include "trace.h"

#include <fstream>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Record(Span span) {
  pae::util::MutexLock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  pae::util::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  const std::vector<Span> spans = Spans();
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    ++t.count;
    t.total_s += static_cast<double>(duration) / 1e9;
    t.self_s += static_cast<double>(duration - children) / 1e9;
  }
  return totals;
}

pae::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : Spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  if (!out) return pae::Status::Internal("cannot write trace " + path);
  return pae::Status::Ok();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       int64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = tracer_->Now();
}

void ScopedSpan::End() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->Now();
  tracer_->Record(std::move(span_));
  tracer_ = nullptr;
}

}  // namespace perfbench
