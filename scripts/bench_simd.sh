#!/usr/bin/env bash
# Runs the SIMD kernel-layer microbenchmarks (Dot, MatVec, the word2vec
# pair kernel at dim 32 and 128, one CRF forward step at 15 labels, the
# fused LSTM timestep, the batched MatMul GEMM and the batched
# LSTM-layer pass — each at every ISA tier the host supports, the
# batched ones additionally at B ∈ {1, 8, 32}) and writes the
# google-benchmark JSON report to BENCH_simd_kernels.json in the
# repository root.
#
#   scripts/bench_simd.sh [build-dir]   # default: build-bench
#
# The benchmarks call math::kernels::SetIsa per run, so a single process
# covers scalar, SSE2 and AVX2; tiers the host cannot execute are
# reported as skipped rather than silently dropped.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_micro_kernels

"${BUILD_DIR}/bench/bench_micro_kernels" \
  --benchmark_filter='BM_Simd' \
  --benchmark_repetitions=9 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_simd_kernels.json \
  --benchmark_out_format=json

echo "wrote BENCH_simd_kernels.json"
