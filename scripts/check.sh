#!/usr/bin/env bash
# Repository check: build + test suite four times — once plain, once
# with ThreadSanitizer focused on the concurrency surface, once with
# AddressSanitizer focused on the interner/feature-pipeline surface,
# and once with UBSan over the FULL ctest suite.
#
#   scripts/check.sh             # all passes
#   scripts/check.sh --no-tsan   # skip the TSan pass
#   scripts/check.sh --no-asan   # skip the ASan pass
#   scripts/check.sh --no-ubsan  # skip the UBSan pass
#   scripts/check.sh --no-fuzz   # skip the ASan+UBSan fuzz-replay pass
#   scripts/check.sh --tidy      # additionally run scripts/tidy.sh
#   PAE_CHECK_JOBS=4 scripts/check.sh   # override build/test parallelism
#
# Pass 1 (default flags) configures build-check/ and runs every ctest
# target (including pae_lint), then runs an instrumented pae-extract
# pass over a small synthetic corpus, validates the emitted
# --metrics-out JSON report, deep-verifies the .paez model artifact
# that run saved and checks that a model which cannot be written fails
# the run (pass 1b), then reruns the full suite with PAE_SIMD=scalar
# (pass 1c) so the portable kernel tier — the one CI hosts without AVX2
# would silently fall back to — gets the same coverage as the
# dispatched default. The pae-serve daemon smoke (200 byte-checked
# requests over its unix socket, one hot swap over the wire, protocol
# shutdown, SIGTERM) is tests/daemon_test, which pass 1's full ctest
# runs. Pass 2 configures build-check-tsan/ with
# -DPAE_SANITIZE=thread and runs the thread-pool + concurrency +
# feature-pipeline + concurrent-interner + serve + daemon binaries
# directly: they are the tests whose failure modes are data races; the serve hot-swap
# hammer is additionally repeated 100 times because the publish/drain
# race is the daemon's central invariant, and the concurrent-interner
# hammer is repeated 20 times for the same reason (CAS slot claims). Pass 3 configures
# build-check-asan/ with -DPAE_SANITIZE=address and runs the interner +
# feature-pipeline + serve + daemon + model-artifact binaries: the interner hands
# out raw string_views into a hand-managed arena, the serve protocol
# tests feed adversarial frames, and the packed-artifact tests probe
# mmap'ed tables in place — exactly the kind of code ASan exists for.
# Pass 4 configures build-check-ubsan/ with -DPAE_SANITIZE=undefined
# (which also enables float-divide-by-zero and -fno-sanitize-recover)
# and runs the WHOLE ctest suite: UBSan's costs are cheap enough to
# afford full coverage, and the ubsan_regression_test corpus of
# malformed UTF-8 / boundary offsets only earns its keep under it.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${PAE_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"
RUN_TSAN=1
RUN_ASAN=1
RUN_UBSAN=1
RUN_FUZZ=1
RUN_TIDY=0
for arg in "$@"; do
  [[ "${arg}" == "--no-tsan" ]] && RUN_TSAN=0
  [[ "${arg}" == "--no-asan" ]] && RUN_ASAN=0
  [[ "${arg}" == "--no-ubsan" ]] && RUN_UBSAN=0
  [[ "${arg}" == "--no-fuzz" ]] && RUN_FUZZ=0
  [[ "${arg}" == "--tidy" ]] && RUN_TIDY=1
done

if [[ "${RUN_TIDY}" == "1" ]]; then
  # Fail fast before spending minutes on sanitizer builds: tidy.sh
  # exits 3 with an install hint when clang-tidy is not on PATH.
  if ! scripts/tidy.sh --probe; then
    echo "check.sh: --tidy requested but clang-tidy is unavailable" >&2
    exit 3
  fi
fi

echo "==> pass 1: default build + full ctest"
cmake -B build-check -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
cmake --build build-check -j "${JOBS}"
ctest --test-dir build-check --output-on-failure -j "${JOBS}"

echo "==> pass 1b: instrumented extraction run + metrics report"
# An end-to-end pae-extract run with --metrics-out proves the metrics
# surface works outside of unit tests: the run must succeed AND emit a
# parseable JSON report containing the core pipeline instruments.
./build-check/tools/pae-datagen --category vacuum --products 80 \
      --seed 5 --out build-check/metrics-corpus > /dev/null
./build-check/tools/pae-extract --in build-check/metrics-corpus \
      --out build-check/metrics-triples.tsv --iterations 2 \
      --metrics-out build-check/metrics-report.json \
      --save-model build-check/metrics-model.paez > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - build-check/metrics-report.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("version", "counters", "gauges", "histograms", "series"):
    assert key in report, f"metrics report missing top-level key {key!r}"
assert report["version"] == 1, report["version"]
assert report["counters"].get("cleaning.input", 0) > 0, "no cleaning counters"
assert len(report["series"].get("crf.objective", [])) > 0, "no CRF objective"
assert len(report["series"].get("bootstrap.triples_total", [])) > 0, \
    "no bootstrap triple series"
print("metrics report OK:", len(report["counters"]), "counters,",
      len(report["histograms"]), "histograms,", len(report["series"]),
      "series")
PYEOF
else
  # No python3: settle for a structural grep that the report at least
  # contains the expected keys.
  for key in '"version"' '"counters"' '"crf.objective"' \
             '"bootstrap.triples_total"' '"cleaning.input"'; do
    grep -q "${key}" build-check/metrics-report.json || {
      echo "check.sh: metrics report missing ${key}" >&2; exit 1; }
  done
  echo "metrics report OK (grep-checked; python3 unavailable)"
fi
# Deep-verify the saved .paez artifact (structure + every section
# checksum) that a real pae-extract run wrote.
./build-check/tools/pae-model-pack --check build-check/metrics-model.paez
# A model that cannot be written is an error, not a "saved model" line:
# once for a missing directory, once for a .pairs file that cannot be
# created next to an artifact that can (a directory is in its way). The
# sidecar is written first, so the second case leaves no artifact
# behind that would load without its whitelist.
rm -f build-check/unsaved.paez
mkdir -p build-check/unsaved.paez.pairs
for target in build-check/no-such-dir/model.paez build-check/unsaved.paez; do
  if ./build-check/tools/pae-extract --in build-check/metrics-corpus \
        --out build-check/metrics-triples-unsaved.tsv --iterations 1 \
        --save-model "${target}" > /dev/null 2>&1; then
    echo "check.sh: pae-extract --save-model ${target} exited 0" >&2
    exit 1
  fi
done
if [ -e build-check/unsaved.paez ]; then
  echo "check.sh: a failed .pairs write left build-check/unsaved.paez" >&2
  exit 1
fi

echo "==> pass 1c: full ctest with PAE_SIMD=scalar"
# Same binaries, scalar kernel tier. The kernels are bit-identical
# across tiers by contract, so every pass-1 expectation must hold
# unchanged here; a divergence means a tier broke the lane discipline.
PAE_SIMD=scalar ctest --test-dir build-check --output-on-failure -j "${JOBS}"
# The batched-BiLSTM determinism gate, explicitly and by name: training
# and decode must be byte-identical at B ∈ {1, 8, 32} (and across
# thread counts) on the scalar tier too, not just on the dispatched
# default the full suite above already covered.
PAE_SIMD=scalar ./build-check/tests/lstm_test \
      --gtest_filter='BiLstmTaggerTest.TrainingByteIdenticalAcrossBatchSizes:BiLstmTaggerTest.DecodeByteIdenticalAcrossBatchSizesAndThreads'

if [[ "${RUN_TSAN}" == "1" ]]; then
  echo "==> pass 2: ThreadSanitizer build + concurrency binaries"
  cmake -B build-check-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=thread > /dev/null
  cmake --build build-check-tsan -j "${JOBS}" \
        --target thread_pool_test concurrency_test feature_pipeline_test \
        concurrent_interner_test streaming_ingest_test serve_test \
        daemon_test
  ./build-check-tsan/tests/thread_pool_test
  ./build-check-tsan/tests/concurrency_test
  ./build-check-tsan/tests/feature_pipeline_test
  ./build-check-tsan/tests/concurrent_interner_test
  # The full multi-worker ingest pipeline (reader + scanner + segmenter
  # + both concurrent interners) under TSan, not just the interner.
  ./build-check-tsan/tests/streaming_ingest_test
  ./build-check-tsan/tests/serve_test
  # The real daemon binary, built with the same instrumentation: 2
  # client threads against 4 workers with a hot swap mid-run.
  ./build-check-tsan/tests/daemon_test
  # The hot-swap hammer is the one test whose whole point is the
  # publish/drain race; a single pass can get lucky, 100 consecutive
  # passes under TSan cannot.
  ./build-check-tsan/tests/serve_test \
        --gtest_filter='GenerationCellTest.HotSwapHammer*' \
        --gtest_repeat=100 --gtest_brief=1
  # Same logic for the lock-free interner: the CAS slot-claim /
  # publish-wait protocol is its central invariant, so the 8-thread
  # mixed intern/find hammer gets repeated runs under TSan by name.
  ./build-check-tsan/tests/concurrent_interner_test \
        --gtest_filter='ConcurrentInternerHammer*' \
        --gtest_repeat=20 --gtest_brief=1
fi

if [[ "${RUN_ASAN}" == "1" ]]; then
  echo "==> pass 3: AddressSanitizer build + interner/pipeline binaries"
  cmake -B build-check-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=address > /dev/null
  cmake --build build-check-asan -j "${JOBS}" \
        --target interner_test feature_pipeline_test crf_test serve_test \
        serve_protocol_test model_artifact_test daemon_test
  ./build-check-asan/tests/interner_test
  ./build-check-asan/tests/feature_pipeline_test
  ./build-check-asan/tests/crf_test
  ./build-check-asan/tests/serve_test
  ./build-check-asan/tests/daemon_test
  # The packed-artifact tests run inference directly over the mmap'ed
  # tables (guarded probes into a caller-owned mapping) — the exact
  # surface where an off-by-one becomes an out-of-mapping read.
  ./build-check-asan/tests/model_artifact_test
  # The adversarial frame corpus (oversize length words, truncations,
  # partial writes) is exactly the input family that turns a missing
  # bounds check into a heap overflow; run it with ASan watching.
  ./build-check-asan/tests/serve_protocol_test
fi

if [[ "${RUN_UBSAN}" == "1" ]]; then
  echo "==> pass 4: UndefinedBehaviorSanitizer build + full ctest"
  cmake -B build-check-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=undefined > /dev/null
  cmake --build build-check-ubsan -j "${JOBS}"
  ctest --test-dir build-check-ubsan --output-on-failure -j "${JOBS}"
fi

if [[ "${RUN_FUZZ}" == "1" ]]; then
  echo "==> pass 5: ASan+UBSan fuzz-harness replay over the corpus"
  # Both structure-aware harnesses over the committed corpus plus the
  # mutation-sweep gtest, instrumented with the fuzzing combo: ASan for
  # the out-of-mapping reads hostile artifacts aim for, UBSan for the
  # arithmetic on hostile header fields. Bounded (corpus replay, not
  # coverage search) so it fits every CI run; the coverage-guided
  # libFuzzer targets run on the Clang leg.
  cmake -B build-check-fuzz -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPAE_SANITIZE=address+undefined > /dev/null
  cmake --build build-check-fuzz -j "${JOBS}" \
        --target pae-fuzz-replay fuzz_replay_test
  ./build-check-fuzz/fuzz/pae-fuzz-replay --target=paez fuzz/corpus/paez
  ./build-check-fuzz/fuzz/pae-fuzz-replay --target=frame fuzz/corpus/frame
  ./build-check-fuzz/tests/fuzz_replay_test
fi

if [[ "${RUN_TIDY}" == "1" ]]; then
  echo "==> extra pass: clang-tidy"
  scripts/tidy.sh
fi

echo "==> all checks passed"
