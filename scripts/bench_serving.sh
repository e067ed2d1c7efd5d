#!/usr/bin/env bash
# Serving benchmark: train a CRF model on a synthetic corpus, then run
# the pae-loadgen self-serve sweep (one in-process pae-serve instance
# per worker count, each driven by exactly one persistent connection
# per worker) and write the p50/p95/p99 + sustained-QPS report.
#
#   scripts/bench_serving.sh                     # refresh BENCH_serving.json
#   scripts/bench_serving.sh --out custom.json   # write elsewhere
#
# Knobs (env):
#   PAE_BENCH_PRODUCTS=120   corpus size used for both training and load
#   PAE_BENCH_REQUESTS=1000  requests per worker-count run
#   PAE_BENCH_WARMUP=100     warm-phase prefix excluded from latency/QPS
#   PAE_BENCH_SEED=42        request-schedule seed
#   PAE_BENCH_WORKERS=1,4,8  worker counts to sweep
#
# The request schedule, aggregate triple count and response checksum
# depend only on the seed + corpus + model, so two runs on the same
# commit must agree on every non-timing field.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_serving.json"
if [[ "${1:-}" == "--out" && -n "${2:-}" ]]; then
  OUT="$2"
fi

PRODUCTS="${PAE_BENCH_PRODUCTS:-120}"
REQUESTS="${PAE_BENCH_REQUESTS:-1000}"
WARMUP="${PAE_BENCH_WARMUP:-100}"
SEED="${PAE_BENCH_SEED:-42}"
WORKERS="${PAE_BENCH_WORKERS:-1,4,8}"
JOBS="$(nproc 2>/dev/null || echo 2)"

BUILD=build-bench-serving
cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD}" -j "${JOBS}" \
      --target pae-datagen pae-extract pae-serve pae-loadgen > /dev/null

CORPUS="${BUILD}/serving-corpus"
MODEL="${BUILD}/serving-model.paez"
./"${BUILD}"/tools/pae-datagen --category vacuum \
      --products "${PRODUCTS}" --seed "${SEED}" --out "${CORPUS}" > /dev/null
./"${BUILD}"/tools/pae-extract --in "${CORPUS}" \
      --out "${BUILD}/serving-triples.tsv" --iterations 2 \
      --save-model "${MODEL}" > /dev/null

./"${BUILD}"/tools/pae-loadgen --self-serve \
      --model "${MODEL}" --resources "${CORPUS}" --corpus "${CORPUS}" \
      --requests "${REQUESTS}" --warmup "${WARMUP}" --seed "${SEED}" \
      --worker-counts "${WORKERS}" --json "${OUT}"

echo "wrote ${OUT}"
