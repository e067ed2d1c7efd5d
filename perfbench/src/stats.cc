#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/strings.h"

namespace perfbench {

namespace {

/// ceil(q * n), immune to q * n landing a rounding error above an
/// integer (0.999 * 10000 must be rank 9990, not 9991).
double Rank(double q, size_t n) {
  return std::ceil(q * static_cast<double>(n) - 1e-9);
}

}  // namespace

double ExactQuantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<size_t>(Rank(std::clamp(q, 0.0, 1.0), sorted.size()));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(s.n);
  s.p50 = ExactQuantile(samples, 0.5);
  s.max = samples.back();
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) / n;
  s.tail = s.max;
  s.tail_percentile = 100;
  for (double pct : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const double q = pct / 100.0;
    if (n - Rank(q, s.n) >= 10) {
      s.tail = ExactQuantile(samples, q);
      s.tail_percentile = pct;
      break;
    }
  }
  s.ordered = s.p50 <= s.tail && s.tail <= s.max;
  return s;
}

std::string TailLabel(const LatencySummary& summary) {
  const double pct = summary.tail_percentile;
  const int digits = pct == std::floor(pct) ? 0 : 1;
  const std::string label =
      pct >= 100 ? "max" : "p" + pae::FormatDouble(pct, digits);
  return label + " (n=" + std::to_string(summary.n) + ")";
}

}  // namespace perfbench
