#ifndef PAE_SERVE_LOADGEN_H_
#define PAE_SERVE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/client.h"
#include "util/rng.h"
#include "util/status.h"

namespace pae::serve {

/// Deterministic load-driver configuration. Everything that shapes the
/// request stream is derived from `seed` before any thread starts, so
/// the same seed and product set produce the identical request sequence
/// at every thread count.
struct LoadgenOptions {
  uint64_t seed = 42;
  /// Driver threads; request i is executed by thread i % threads.
  int threads = 1;
  /// Total requests, including the warmup prefix.
  int requests = 1000;
  /// Leading requests treated as the cold/warm-up phase: they count
  /// toward totals and checksums but not toward latency buckets or QPS.
  int warmup_requests = 0;
  /// Fraction of requests that are kExtract; the rest are kPing.
  double extract_fraction = 1.0;
  /// 0 = closed loop (each thread fires back to back). > 0 = open loop:
  /// request i is released at i / open_loop_qps seconds after start.
  double open_loop_qps = 0.0;
  /// When >= 0, `swap_hook` (RunLoadgen argument) fires exactly once, as
  /// soon as this many requests have completed.
  int64_t swap_at = -1;
};

/// One page of the driver's working set.
struct LoadgenProduct {
  std::string product_id;
  std::string html;
};

/// One precomputed request: which product, which opcode.
struct RequestSlot {
  uint32_t product = 0;
  bool is_extract = true;
};

struct LoadgenReport {
  uint64_t requests_sent = 0;
  uint64_t ok_responses = 0;
  uint64_t error_responses = 0;
  uint64_t transport_errors = 0;
  uint64_t triples = 0;
  /// Order-independent aggregate over every extract response: the sum of
  /// per-triple FNV-1a hashes. Identical runs (same seed, same model)
  /// produce the identical checksum at any thread count.
  uint64_t checksum = 0;
  /// Generation span observed across extract responses (0/0 when none).
  uint64_t generation_min = 0;
  uint64_t generation_max = 0;

  /// Measured (post-warmup) phase only. QPS and the latency fields
  /// count OK responses only (a failed request is not served work), and
  /// each quantile is clamped to max_seconds, so
  /// p50 <= p95 <= p99 <= max always holds.
  double elapsed_seconds = 0;
  double qps = 0;
  double p50_seconds = 0;
  double p95_seconds = 0;
  double p99_seconds = 0;
  double max_seconds = 0;
  /// True when any reported quantile landed in the histogram's +inf
  /// overflow bucket: that quantile is clamped to the last finite bound
  /// and therefore underestimates the true latency.
  bool saturated = false;
  /// "le" latency buckets (core::RequestLatencyBounds upper bounds +
  /// one overflow slot), measured-phase OK responses only.
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
};

/// NURand-style skewed index in [0, n): the TPC-C non-uniform random
/// trick — OR of two uniform draws biases toward indices sharing high
/// bits with hot items — adapted here for product popularity so cache
/// behaviour under load resembles a real catalog, not a uniform sweep.
/// `a` must be (2^k - 1) >= n - 1; `c` is a per-run constant.
uint64_t NURand(uint64_t a, uint64_t c, uint64_t n, Rng& rng);

/// Precomputes the full request schedule from options.seed. Pure:
/// thread-count independent by construction.
std::vector<RequestSlot> BuildSchedule(const LoadgenOptions& options,
                                       size_t n_products);

/// Order-independent hash of one extracted triple (FNV-1a over
/// product_id / attribute / value with field separators).
uint64_t TripleHash(const core::Triple& triple);

/// Linear-interpolated quantile from "le" buckets. `counts` has
/// bounds.size() + 1 slots (last = the +inf overflow bucket). Returns 0
/// when total is 0. A quantile that lands in the overflow bucket cannot
/// be interpolated; it is clamped to the last finite bound and, when
/// `saturated` is non-null, *saturated is set to true so callers can
/// tell a real measurement from a clamped underestimate.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double q,
                           bool* saturated = nullptr);

/// Runs the schedule against a server. `connect` is called once per
/// driver thread (each thread owns one connection); `swap_hook`, when
/// set and options.swap_at >= 0, is invoked exactly once by whichever
/// thread completes request number swap_at. Returns a report whose
/// aggregate counters (requests, triples, checksum) are deterministic
/// for a fixed seed + model, independent of threads and timing.
Result<LoadgenReport> RunLoadgen(
    const LoadgenOptions& options,
    const std::vector<LoadgenProduct>& products,
    const std::function<Result<Client>()>& connect,
    const std::function<void()>& swap_hook = nullptr);

}  // namespace pae::serve

#endif  // PAE_SERVE_LOADGEN_H_
