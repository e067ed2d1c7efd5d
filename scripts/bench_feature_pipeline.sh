#!/usr/bin/env bash
# Runs the CRF feature-pipeline microbenchmarks (extraction and
# compilation — string baseline vs interned vs cached, each at 1/2/4
# threads; the training objective at the bootstrap's shape, 15 labels ×
# ~5 tokens × ~1000 features, at 1/2/4 threads and at 3 labels on 1
# thread; the per-sequence NLL + gradient at 9/17/25 labels × 15 tokens
# and at 15 labels × 5 tokens) and writes the google-benchmark JSON
# report to BENCH_feature_pipeline.json in the repository root.
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
