#!/usr/bin/env bash
# Model-load benchmark: opening the mmap'ed .paez artifact at two
# scales.
#
#   scripts/bench_model_load.sh                  # refresh BENCH_model_load.json
#   scripts/bench_model_load.sh --out custom.json
#
# Two passes, merged into one JSON:
#   1. trained model  — a real pipeline-trained CRF (~1.5k features):
#      first-touch vs warm, bytes copied.
#   2. field-scale model — trained on synthetic sequences at production
#      feature counts (the bundled corpora train only ~1.5k features;
#      deployments carry hundreds of thousands). The headline warm-open
#      time and the zero-copy proof come from this pass.
# Publishing a model into a serving daemon under load is timed by
# perfbench's serve_unix workload (serve.publish.ms).
#
# Knobs (env):
#   PAE_BENCH_PRODUCTS=120      corpus size for the trained model
#   PAE_BENCH_FEATURES=200000   approximate field-scale feature count
#   PAE_BENCH_ITERATIONS=30     load repetitions per timing arm
#   PAE_BENCH_SEED=42
#
# Non-timing fields depend only on the seed + corpus + feature count, so
# two runs on the same commit must agree on everything but the seconds.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_model_load.json"
if [[ "${1:-}" == "--out" && -n "${2:-}" ]]; then
  OUT="$2"
fi

PRODUCTS="${PAE_BENCH_PRODUCTS:-120}"
FEATURES="${PAE_BENCH_FEATURES:-200000}"
ITERATIONS="${PAE_BENCH_ITERATIONS:-30}"
SEED="${PAE_BENCH_SEED:-42}"
JOBS="$(nproc 2>/dev/null || echo 2)"

BUILD=build-bench-model-load
cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD}" -j "${JOBS}" \
      --target pae-datagen pae-extract bench_model_load > /dev/null

CORPUS="${BUILD}/load-corpus"
SMALL="${BUILD}/load-trained.paez"
LARGE="${BUILD}/load-field.paez"

# ---- pass 1: real trained model ----
./"${BUILD}"/tools/pae-datagen --category vacuum \
      --products "${PRODUCTS}" --seed "${SEED}" --out "${CORPUS}" > /dev/null
./"${BUILD}"/tools/pae-extract --in "${CORPUS}" \
      --out "${BUILD}/load-triples.tsv" --iterations 2 \
      --save-model "${SMALL}" > /dev/null
./"${BUILD}"/bench/bench_model_load --paez "${SMALL}" \
      --iterations "${ITERATIONS}" --json "${BUILD}/load-trained.json"

# ---- pass 2: field-scale model (headline numbers) ----
./"${BUILD}"/bench/bench_model_load --make-model "${LARGE}" \
      --make-features "${FEATURES}" --make-seed "${SEED}"
./"${BUILD}"/bench/bench_model_load --paez "${LARGE}" \
      --iterations "${ITERATIONS}" --json "${BUILD}/load-field.json"

# ---- merge ----
python3 - "${BUILD}/load-field.json" "${BUILD}/load-trained.json" \
      "${OUT}" <<'EOF'
import json, sys
field, trained, out = sys.argv[1:4]
with open(field) as f: report = json.load(f)
with open(trained) as f: report["trained_model"] = json.load(f)
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
EOF

echo "wrote ${OUT}"
python3 -c "
import json
r = json.load(open('${OUT}'))
print('field-scale open: warm %.1f us, checksum-verified first touch %.1f ms' % (
    r['paez_warm_mmap']['min_seconds'] * 1e6,
    r['paez_first_touch_verified']['min_seconds'] * 1e3))
print('field-scale bytes copied per load: %d (labels only)' % r['bytes_copied_per_load']['paez'])
"
