#!/usr/bin/env bash
# Runs the CRF feature-pipeline microbenchmarks (extraction, compilation,
# objective — string baseline vs interned vs cached, each at 1/2/4
# threads — plus the per-sequence NLL + gradient kernel at 9/17/25
# labels) and writes the google-benchmark JSON report to
# BENCH_feature_pipeline.json in the repository root.
#
#   scripts/bench_feature_pipeline.sh [build-dir]   # default: build-bench

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro_kernels

"${BUILD_DIR}/bench/bench_micro_kernels" \
  --benchmark_filter='FeatureExtract|FeatureCompile|CrfObjective|CrfSequenceNll' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_feature_pipeline.json \
  --benchmark_out_format=json

echo "wrote BENCH_feature_pipeline.json"
