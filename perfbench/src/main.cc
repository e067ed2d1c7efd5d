// pae_perfbench: runs one benchmark workload and prints its metrics.
//
//   pae_perfbench --workload bootstrap_ja|apply_de|serve_unix|serve_tcp
//                 --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-out FILE]
//
// Human-readable report lines come first; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when an output oracle or a reconciliation check
// fails, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: pae_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value.c_str());
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  perfbench::WorkloadPlan plan;
  if (argc % 2 != 1 || seed < 0 || seconds <= 0 || trace < 0 ||
      !perfbench::PlanWorkload(workload, static_cast<uint64_t>(seed), seconds,
                               &plan)) {
    return Usage();
  }
  pae::SetMinLogLevel(2);
  const std::string tag =
      workload + "-seed" + std::to_string(seed) + "-trace" + std::to_string(trace);
  if (work_dir.empty()) {
    work_dir = ".bench_build/runs/" + tag + "-" + std::to_string(getpid());
  }
  if (trace_out.empty()) trace_out = ".bench_build/traces/" + tag + ".jsonl";
  std::filesystem::create_directories(work_dir);
  std::filesystem::create_directories(
      std::filesystem::path(trace_out).parent_path());

  // Start from a flushed page cache: otherwise the write-back of an
  // earlier run's scratch files (thousands of pages, then deleted) lands
  // in this run's set-up time.
  sync();
  perfbench::RunResult result =
      perfbench::RunWorkload(plan, trace == 1, work_dir, trace_out);
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);

  const auto& specs = trace == 1 ? perfbench::PerLayerMetrics()
                                 : perfbench::EndToEndMetrics();
  std::string json = "{\"metrics\": {";
  bool first = true;
  for (const perfbench::MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    double value = it == result.metrics.end() ? 0 : it->second;
    if (trace == 0 && (it == result.metrics.end() || value == 0)) {
      result.correct = false;
      result.problems.push_back(std::string("end-to-end metric ") + spec.name +
                                " was not measured");
    }
    if (!std::isfinite(value)) {
      result.correct = false;
      result.problems.push_back(std::string("metric ") + spec.name +
                                " is not finite");
      value = 0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    std::cout << "metric " << spec.name << " = " << number << " " << spec.unit
              << "\n";
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  for (const std::string& line : result.report) std::cout << line << "\n";
  for (const std::string& problem : result.problems) {
    std::cout << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", "
            << json.substr(1) << std::endl;
  return result.correct ? 0 : 1;
}
