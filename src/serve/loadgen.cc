#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/engine.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace pae::serve {

namespace {

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= kPrime;
  }
  // Field separator: hash a byte no UTF-8 string contains, so
  // ("ab", "c") and ("a", "bc") cannot collide structurally.
  h ^= 0xFF;
  h *= kPrime;
  return h;
}

/// Smallest (2^k - 1) >= n - 1: the NURand `A` parameter for an
/// n-element working set (TPC-C uses fixed A per table size; deriving
/// it keeps any corpus size well-formed).
uint64_t NURandA(uint64_t n) {
  uint64_t a = 1;
  while (a < n - 1) a = (a << 1) | 1;
  return a;
}

/// Per-thread tally, merged under a mutex at thread exit. Sums and XORs
/// only — merge order cannot change the totals.
struct ThreadTally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t transport_errors = 0;
  uint64_t triples = 0;
  uint64_t checksum = 0;
  uint64_t generation_min = 0;
  uint64_t generation_max = 0;
  std::vector<uint64_t> buckets;
  double max_seconds = 0;
};

void ObserveLatency(std::vector<uint64_t>* buckets,
                    const std::vector<double>& bounds, double seconds) {
  size_t i = 0;
  while (i < bounds.size() && seconds > bounds[i]) ++i;
  ++(*buckets)[i];
}

}  // namespace

uint64_t NURand(uint64_t a, uint64_t c, uint64_t n, Rng& rng) {
  PAE_CHECK_GT(n, 0u);
  const uint64_t x = rng.NextBounded(a + 1);
  const uint64_t y = rng.NextBounded(n);
  return ((x | y) + c) % n;
}

std::vector<RequestSlot> BuildSchedule(const LoadgenOptions& options,
                                       size_t n_products) {
  PAE_CHECK_GT(n_products, 0u);
  Rng rng(options.seed);
  const uint64_t a = NURandA(n_products);
  // The hot-item offset: fixed for the whole run, different per seed.
  const uint64_t c = rng.NextBounded(n_products);
  std::vector<RequestSlot> schedule;
  schedule.reserve(static_cast<size_t>(options.requests));
  for (int i = 0; i < options.requests; ++i) {
    RequestSlot slot;
    slot.product = static_cast<uint32_t>(NURand(a, c, n_products, rng));
    slot.is_extract = rng.Bernoulli(options.extract_fraction);
    schedule.push_back(slot);
  }
  return schedule;
}

uint64_t TripleHash(const core::Triple& triple) {
  constexpr uint64_t kOffset = 14695981039346656037ULL;
  uint64_t h = kOffset;
  h = Fnv1a(h, triple.product_id);
  h = Fnv1a(h, triple.attribute);
  h = Fnv1a(h, triple.value);
  return h;
}

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double q,
                           bool* saturated) {
  PAE_CHECK_EQ(counts.size(), bounds.size() + 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (i == bounds.size()) {
      // The quantile falls in the +inf overflow bucket: the histogram
      // has no upper edge to interpolate against, so the best we can
      // report is the last finite bound — an *underestimate*. Flag it
      // instead of silently passing the clamp off as a measurement.
      if (saturated != nullptr) *saturated = true;
      return bounds.back();
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double frac =
        (target - before) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.back();
}

Result<LoadgenReport> RunLoadgen(
    const LoadgenOptions& options,
    const std::vector<LoadgenProduct>& products,
    const std::function<Result<Client>()>& connect,
    const std::function<void()>& swap_hook) {
  if (products.empty()) {
    return Status::InvalidArgument("loadgen needs at least one product");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  if (options.warmup_requests > options.requests) {
    return Status::InvalidArgument("warmup_requests exceeds requests");
  }

  const std::vector<RequestSlot> schedule =
      BuildSchedule(options, products.size());
  const std::vector<double>& bounds = core::RequestLatencyBounds();

  // Pre-connect every driver thread so a refused connection fails the
  // run up front instead of skewing the measured phase.
  std::vector<Client> clients;
  clients.reserve(static_cast<size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t) {
    Result<Client> client = connect();
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client.value()));
  }

  util::Mutex merge_mutex;
  LoadgenReport report;
  report.bounds = bounds;
  report.bucket_counts.assign(bounds.size() + 1, 0);

  std::atomic<int64_t> completed{0};
  std::atomic<bool> swap_fired{false};
  const auto start = std::chrono::steady_clock::now();
  // The measured phase begins once the warmup prefix has fully drained;
  // sampled by the first thread to observe the transition.
  std::atomic<int64_t> measured_start_ns{0};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t) {
    threads.emplace_back([&, t] {
      Client& client = clients[static_cast<size_t>(t)];
      ThreadTally tally;
      tally.buckets.assign(bounds.size() + 1, 0);
      for (size_t i = static_cast<size_t>(t); i < schedule.size();
           i += static_cast<size_t>(options.threads)) {
        const RequestSlot& slot = schedule[i];
        const LoadgenProduct& product = products[slot.product];
        if (options.open_loop_qps > 0) {
          const auto release =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) /
                              options.open_loop_qps));
          std::this_thread::sleep_until(release);
        }
        const bool measured =
            i >= static_cast<size_t>(options.warmup_requests);
        const auto sent_at = std::chrono::steady_clock::now();
        ++tally.sent;
        bool ok = false;
        if (slot.is_extract) {
          Result<ExtractResponse> response =
              client.Extract(product.product_id, product.html);
          ok = response.ok();
          if (ok) {
            const ExtractResponse& r = response.value();
            tally.triples += r.triples.size();
            for (const core::Triple& triple : r.triples) {
              tally.checksum += TripleHash(triple);
            }
            if (tally.generation_min == 0 ||
                r.generation < tally.generation_min) {
              tally.generation_min = r.generation;
            }
            tally.generation_max =
                std::max(tally.generation_max, r.generation);
          } else if (response.status().code() == StatusCode::kInternal ||
                     response.status().code() == StatusCode::kNotFound) {
            ++tally.transport_errors;
          } else {
            ++tally.errors;
          }
        } else {
          ok = client.Ping().ok();
          if (!ok) ++tally.transport_errors;
        }
        if (ok) ++tally.ok;
        if (measured) {
          // Failed requests are not latencies of served work.
          if (ok) {
            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sent_at)
                    .count();
            ObserveLatency(&tally.buckets, bounds, seconds);
            tally.max_seconds = std::max(tally.max_seconds, seconds);
          }
          int64_t expected = 0;
          measured_start_ns.compare_exchange_strong(
              expected,
              std::chrono::duration_cast<std::chrono::nanoseconds>(sent_at -
                                                                   start)
                  .count(),
              std::memory_order_seq_cst);
        }
        const int64_t done =
            completed.fetch_add(1, std::memory_order_seq_cst) + 1;
        if (options.swap_at >= 0 && swap_hook != nullptr &&
            done >= options.swap_at &&
            !swap_fired.exchange(true, std::memory_order_seq_cst)) {
          swap_hook();
        }
      }
      util::MutexLock lock(merge_mutex);
      report.requests_sent += tally.sent;
      report.ok_responses += tally.ok;
      report.error_responses += tally.errors;
      report.transport_errors += tally.transport_errors;
      report.triples += tally.triples;
      report.checksum += tally.checksum;
      if (tally.generation_min != 0 &&
          (report.generation_min == 0 ||
           tally.generation_min < report.generation_min)) {
        report.generation_min = tally.generation_min;
      }
      report.generation_max =
          std::max(report.generation_max, tally.generation_max);
      for (size_t b = 0; b < tally.buckets.size(); ++b) {
        report.bucket_counts[b] += tally.buckets[b];
      }
      report.max_seconds = std::max(report.max_seconds, tally.max_seconds);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  const double total_elapsed =
      std::chrono::duration<double>(end - start).count();
  const double measured_offset =
      static_cast<double>(measured_start_ns.load(std::memory_order_seq_cst)) *
      1e-9;
  report.elapsed_seconds =
      options.warmup_requests > 0
          ? std::max(total_elapsed - measured_offset, 1e-9)
          : total_elapsed;
  // Only OK responses are observed, so QPS counts successful work, and
  // an interpolated quantile is clamped to the largest observed latency.
  uint64_t measured_ok = 0;
  for (uint64_t c : report.bucket_counts) measured_ok += c;
  report.qps = report.elapsed_seconds > 0
                   ? static_cast<double>(measured_ok) /
                         report.elapsed_seconds
                   : 0;
  auto quantile = [&](double q) {
    return std::min(QuantileFromBuckets(report.bounds, report.bucket_counts,
                                        q, &report.saturated),
                    report.max_seconds);
  };
  report.p50_seconds = quantile(0.50);
  report.p95_seconds = quantile(0.95);
  report.p99_seconds = quantile(0.99);
  return report;
}

}  // namespace pae::serve
