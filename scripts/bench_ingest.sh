#!/usr/bin/env bash
# Ingestion benchmark: the four-phase barrier pipeline (LoadCorpus →
# the tests/support oracle::ProcessCorpus → DiscoverCandidates → serial
# vocab fold) vs the
# single-pass streaming pipeline (core/ingest.h) over the same on-disk
# corpus, at several thread counts.
#
#   scripts/bench_ingest.sh                  # refresh BENCH_ingest.json
#   scripts/bench_ingest.sh --out custom.json
#
# One binary run produces the whole report: a single-threaded phase
# profile of the barrier pipeline, interleaved barrier/streaming timing
# arms per thread count (min of PAE_BENCH_REPS reps each), an interner
# micro-benchmark, and the FlatStringInterner::Reserve effect. The
# binary also re-checks the equivalence contract on every rep — the
# report's `outputs_identical_across_arms_and_threads` must be true or
# the timings are meaningless.
#
# Knobs (env):
#   PAE_BENCH_PRODUCTS=3000        corpus size (pages ≈ products × ~1.05)
#   PAE_BENCH_PAGE_SENTENCES=80    filler sentences per page; the default
#                                  camera schema's 3-8 sentence pages are
#                                  far shorter than field product pages
#   PAE_BENCH_REPS=5               timing reps per arm (min is reported)
#   PAE_BENCH_THREADS=1,4,8        thread counts to sweep
#   PAE_BENCH_SEED=1
#
# Corpus generation is deterministic in (seed, products, page length),
# so two runs on the same commit agree on everything but the seconds.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_ingest.json"
if [[ "${1:-}" == "--out" && -n "${2:-}" ]]; then
  OUT="$2"
fi

PRODUCTS="${PAE_BENCH_PRODUCTS:-3000}"
PAGE_SENTENCES="${PAE_BENCH_PAGE_SENTENCES:-80}"
REPS="${PAE_BENCH_REPS:-5}"
THREADS="${PAE_BENCH_THREADS:-1,4,8}"
SEED="${PAE_BENCH_SEED:-1}"
JOBS="$(nproc 2>/dev/null || echo 2)"

BUILD=build-bench-ingest
cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target bench_ingest > /dev/null

# The corpus is generated into the build tree on first use and reused
# afterwards; it is keyed by scale so knob changes regenerate it.
CORPUS="${BUILD}/ingest-corpus-p${PRODUCTS}-s${PAGE_SENTENCES}-seed${SEED}"

./"${BUILD}"/bench/bench_ingest --dir "${CORPUS}" \
      --products "${PRODUCTS}" --page-sentences "${PAGE_SENTENCES}" \
      --seed "${SEED}" --reps "${REPS}" --threads "${THREADS}" \
      --json "${OUT}"

echo "wrote ${OUT}"
python3 -c "
import json
r = json.load(open('${OUT}'))
arms = r['arms']
ok = arms['outputs_identical_across_arms_and_threads']
print('outputs identical across arms and threads:', ok)
for key in sorted(k for k in arms if k.startswith('threads_')):
    a = arms[key]
    print('%-10s barrier %.3fs  streaming %.3fs  speedup %.2fx' % (
        key, a['barrier_seconds'], a['streaming_seconds'],
        a['streaming_speedup']))
print('headline streaming_speedup_at_max_threads: %.2fx' %
      r['streaming_speedup_at_max_threads'])
assert ok, 'equivalence contract violated'
"
