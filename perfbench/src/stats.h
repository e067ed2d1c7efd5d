#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Exact nearest-rank quantile: the smallest sample v such that at least
/// ceil(q * n) samples are <= v. `sorted` must be ascending and
/// non-empty; q is clamped to [0, 1] (q = 0 yields the minimum).
double ExactQuantile(const std::vector<double>& sorted, double q);

/// Median with the usual even-count midpoint (for a handful of job
/// timings, where nearest-rank would throw half the information away).
double Median(std::vector<double> values);

/// Latency summary built from exact samples. `tail` is the highest
/// percentile in {99.9, 99, 98, 95, 90, 75, 50} that has at least ten
/// samples strictly beyond it; with fewer than 20 samples no percentile
/// qualifies and the tail is the maximum (tail_percentile = 100).
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  double max = 0;
  double mean = 0;
  /// p50 <= tail <= max, checked on every summary.
  bool ordered = true;
};

LatencySummary Summarize(std::vector<double> samples);

/// "p95 (n=250)"-style label for reports.
std::string TailLabel(const LatencySummary& summary);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
