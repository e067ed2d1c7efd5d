#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/schema.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed on every untraced run of every workload (the names and units
/// BENCHMARK.json lists under "end_to_end").
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed on every traced run; a layer a workload does not exercise
/// reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

/// Everything that shapes a workload's inputs. Only the datagen seeds
/// and the request schedule depend on the benchmark seed; the rest is
/// fixed per workload.
struct WorkloadPlan {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  pae::datagen::CategoryId category = pae::datagen::CategoryId::kVacuumCleaner;
  int train_products = 0;
  uint64_t train_seed = 0;
  int corpora = 1;  // distinct training crawls (bootstrap_ja rotates them)
  int heldout_products = 0;  // 0: the workload has no held-out corpus
  uint64_t heldout_seed = 0;
  int threads = 2;         // ingest / bootstrap / apply threads
  int setup_repeats = 3;   // setup_s is the median of these
  // Serving only.
  std::string transport;   // "unix" | "tcp" | ""
  int server_workers = 0;  // = client connections = sending threads
  double base_qps = 0;
  std::vector<double> ladder_qps;  // ascending, includes base_qps
  double limit_ms = 0;             // p99 latency limit
  double rung_seconds = 0;
  int saturation_slices = 0;       // closed-loop capacity probes ...
  double saturation_seconds = 0;   // ... of this length each
  double publish_interval_seconds = 0;
  /// Held-out page index of each base-rate request.
  std::vector<uint32_t> schedule;
  /// Same, per ladder rung above the base rate (ladder_qps[k + 1]).
  std::vector<std::vector<uint32_t>> rung_schedules;
  /// Same, for the saturation probe (sized for the ladder's top rate).
  std::vector<uint32_t> saturation_schedule;
};

/// False when `workload` is not one of WorkloadNames().
bool PlanWorkload(const std::string& workload, uint64_t seed, double seconds,
                  WorkloadPlan* plan);

struct RunResult {
  /// False when an output oracle or a reconciliation check failed; the
  /// reasons are in `problems`.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;
  /// Human-readable report lines (provenance, workload-specific metrics, rung
  /// verdicts, checksums, reconciliation gaps).
  std::vector<std::string> report;
};

/// Runs one workload: set-up (repeated), the timed region, and the
/// output oracles. With `trace` the run also replays the timed work with
/// spans and fills the per-layer metrics. Scratch files go under
/// `work_dir`; the span log is written to `trace_path` when tracing.
RunResult RunWorkload(const WorkloadPlan& plan, bool trace,
                      const std::string& work_dir,
                      const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
