#!/usr/bin/env bash
# Tier-1 verification: lint, then build + full test suite in five configs —
# plain Release (which also runs the figure phases, diffing the tables
# that repeat, runs every example, and self-checks perfbench, the repo
# benchmark),
# AddressSanitizer + UBSan (PMEMCPY_SANITIZE), the
# persistency-order checker build (PMEMCPY_PERSIST_CHECK, with violations
# fatal so any unconsumed finding fails the suite), the tracing build
# (PMEMCPY_TRACE, every test with the observability layer recording), and
# the fault config (the self-healing sweeps under all three instrumentation
# layers at once, DESIGN.md §10), and ThreadSanitizer over the suites that
# run threads of their own.
#
#   ./ci.sh            # all configs
#   ./ci.sh release    # release only
#   ./ci.sh sanitize   # sanitizers only
#   ./ci.sh checker    # persist-checker config only
#   ./ci.sh trace      # tracing-enabled config only
#   ./ci.sh fault      # fault-injection sweep config only
#   ./ci.sh tsan       # ThreadSanitizer config only
set -euo pipefail
cd "$(dirname "$0")"

run_audit() {
  local dir="$1"
  # Exact per-phase flush/fence, copy and allocator counts (bench/audit.cpp).
  # The binary exits 1 on a broken invariant; any count that differs from
  # the checked-in baseline fails the diff.
  "${dir}/bench/audit" --json "${dir}/BENCH_audit.json"
  diff -u bench/audit_baseline.json "${dir}/BENCH_audit.json"
}

run_figures() {
  local dir="$1"
  # The paper's figures on the simulated clock (bench/figures.cpp).  Host
  # thread order moves nearly every cell by microseconds (ROADMAP item 5),
  # so only phases whose every printed digit stays further from a rounding
  # edge than the cell's spread over dozens of runs are diffed against the
  # checked-in tables.  The other ten run without a diff, so a crash or a
  # failed read check still fails.
  PMEMCPY_BENCH_GB=0.05 "${dir}/bench/figures" api_complexity \
    ablation_chunking > "${dir}/BENCH_figures.txt"
  diff -u bench/figures_baseline.txt "${dir}/BENCH_figures.txt"
  PMEMCPY_BENCH_GB=0.05 "${dir}/bench/figures" fig6_write fig7_read \
    ablation_mapsync ablation_filters ablation_staging ablation_serializers \
    ablation_layout ablation_nbuckets bb_drain read_patterns \
    > "${dir}/BENCH_figures_ungated.txt"
}

run_examples() {
  local dir="$1"
  # Every example binary once, end to end (hierarchical_vars drives the tree
  # layout); a non-zero exit fails the config.
  local ex
  for ex in "${dir}"/examples/*; do
    [[ -f "${ex}" && -x "${ex}" ]] || continue
    echo "-- ${ex##*/}"
    "${ex}" > /dev/null
  done
}

run_fault_smoke() {
  local dir="$1"
  # An unmodified example under env-armed transient faults, which the
  # default retry budget must heal invisibly.  Arming starts the device's
  # cache-line model, so a failed writeback reverts its lines.
  env PMEMCPY_FAULT_RATE=0.001 PMEMCPY_FAULT_SEED=7 \
    "${dir}/examples/quickstart" >/dev/null
}

run_config() {
  local name="$1"
  shift
  local dir="build-ci-${name}"
  echo "==== [${name}] lint ===="
  # pmemlint gates every config before the build; the JSON report is the
  # config's lint artifact.  Any non-baselined finding fails the run.
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "==== [${name}] configure ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j"$(nproc)"
  echo "==== [${name}] test ===="
  # CTEST_ENV: extra KEY=VAL pairs exported into the test processes.  The
  # full suite is the tier1 label (every test carries it; crash/fault/
  # property sub-labels select subsets, see tests/CMakeLists.txt).  A test
  # still running after 600 s has hung: it fails instead of stalling CI.
  env ${CTEST_ENV:-} ctest --test-dir "${dir}" --output-on-failure \
    --timeout 600 -j"$(nproc)" -L tier1
  echo "==== [${name}] audit ===="
  run_audit "${dir}"
  if [[ "${name}" == "release" ]]; then
    echo "==== [${name}] figures ===="
    run_figures "${dir}"
    echo "==== [${name}] examples ===="
    run_examples "${dir}"
    echo "==== [${name}] env-armed fault smoke ===="
    # Here no checker has started the model before the faults arm.
    run_fault_smoke "${dir}"
    echo "==== [${name}] crash-fuzz soaks ===="
    # 100k random tree-engine ops with a crash about every dozen: each
    # remount must free the inodes and blocks its crash stranded, or the
    # soak runs out of inodes long before the end.  Then 100k table ops of
    # which about one in 8 rehashes, so about a thousand crashes land
    # inside a rebuild of either bucket-array generation.
    PMEMCPY_FUZZ_ITERS=100000 "${dir}/tests/engine_property_test" \
      --gtest_filter='*CrashFuzz*Tree:*CrashFuzz*TableRehash' --gtest_brief=1
    echo "==== [${name}] benchmark self-check ===="
    # perfbench is its own CMake package compiling ../src into .bench_build/;
    # the self-check builds it and runs every workload at tiny sizes, so a
    # library change that breaks the benchmark's build or its correctness
    # checks fails here rather than only in the benchmark pipeline.
    python3 perfbench/run.py --self-check
  fi
}

run_checker_config() {
  local env="PMEMCPY_PERSIST_CHECK=1 PMEMCPY_PERSIST_CHECK_FATAL=1"
  CTEST_ENV="${env}" \
    run_config checker -DCMAKE_BUILD_TYPE=Release -DPMEMCPY_PERSIST_CHECK=ON
  echo "==== [checker] concurrent repeats ===="
  # The checker judges each thread by its own flushes and fences.  A rule
  # that mixes threads up again fails only a few runs in a hundred, so the
  # concurrent suites repeat under the fatal checker.
  env ${env} build-ci-checker/tests/hashtable_test \
    --gtest_filter='HashTable*Concurrent*' --gtest_repeat=20 --gtest_brief=1
  env ${env} build-ci-checker/tests/engine_conformance_test \
    --gtest_filter='*Concurrent*' --gtest_repeat=20 --gtest_brief=1
}

run_trace_config() {
  # Every test runs with tracing recording.  Spans are pure observers of
  # the simulated clock, so the suite's timing, flush and fence assertions
  # must hold unchanged with them live.
  CTEST_ENV="PMEMCPY_TRACE=1" \
    run_config trace -DCMAKE_BUILD_TYPE=Release -DPMEMCPY_TRACE=ON
}

run_fault_config() {
  # Self-healing data path (DESIGN.md §10): the fault-matrix + scrub-corpus
  # sweeps under every instrumentation layer at once — ASan/UBSan catch any
  # unwinding bug in the retry/rollback paths, the persistency-order checker
  # proves zero violations while faults fire, tracing records the ft.*
  # counters the tests assert on.  The suites arm their own seeded fault
  # plans; the env-armed smoke then exercises the PMEMCPY_FAULT_* path.
  local dir="build-ci-fault"
  echo "==== [fault] lint ===="
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "==== [fault] configure ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPMEMCPY_SANITIZE=ON -DPMEMCPY_PERSIST_CHECK=ON -DPMEMCPY_TRACE=ON
  echo "==== [fault] build ===="
  cmake --build "${dir}" -j"$(nproc)"
  echo "==== [fault] fault-matrix + scrub-corpus sweep ===="
  # Selected by ctest label (tests/CMakeLists.txt tags fault_matrix_test and
  # scrub_corpus_test with "fault"), so new fault suites join the sweep by
  # adding the label instead of editing this regex.
  env PMEMCPY_PERSIST_CHECK=1 PMEMCPY_TRACE=1 \
    ctest --test-dir "${dir}" --output-on-failure --timeout 600 \
    -j"$(nproc)" -L fault
  echo "==== [fault] env-armed smoke ===="
  run_fault_smoke "${dir}"
  echo "==== [fault] audit (injection disabled) ===="
  # The audit stays env-free: with injection disabled the build must be
  # count-for-count identical to an uninstrumented one.
  run_audit "${dir}"
}

run_tsan_config() {
  # ThreadSanitizer over the suites whose threads share a device, a pool, a
  # table or a filesystem; the first race report fails the config.  Each
  # run is a suite and its gtest filter: the three slowest suites run only
  # their tests whose threads share one pool engine (whole, they take
  # minutes each under TSan).
  local dir="build-ci-tsan"
  local runs=("pmemdev_test *" "hashtable_test *" "stress_test *"
    "par_test *" "determinism_test *" "chunked_test *" "miniio_test *"
    "facade_test *" "engine_conformance_test *Concurrent*"
    "core_property_test *Parallel*:TraceProperty.ChildSpanDurationsSumWithinParent"
    "core_api_test *Parallel*")
  echo "==== [tsan] lint ===="
  mkdir -p "${dir}"
  LINT_JSON="${dir}/pmemlint_report.json" scripts/lint.sh
  echo "==== [tsan] configure ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
  echo "==== [tsan] build ===="
  local r targets=()
  for r in "${runs[@]}"; do targets+=("${r%% *}"); done
  cmake --build "${dir}" -j"$(nproc)" --target "${targets[@]}"
  echo "==== [tsan] race-checked suites ===="
  for r in "${runs[@]}"; do
    echo "-- ${r}"
    env TSAN_OPTIONS="halt_on_error=1 detect_deadlocks=0" \
      "${dir}/tests/${r%% *}" --gtest_brief=1 --gtest_filter="${r#* }"
  done
}

what="${1:-all}"

case "${what}" in
  release)
    run_config release -DCMAKE_BUILD_TYPE=Release
    ;;
  sanitize)
    run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMEMCPY_SANITIZE=ON
    ;;
  checker)
    run_checker_config
    ;;
  trace)
    run_trace_config
    ;;
  fault)
    run_fault_config
    ;;
  tsan)
    run_tsan_config
    ;;
  all)
    run_config release -DCMAKE_BUILD_TYPE=Release
    run_config sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPMEMCPY_SANITIZE=ON
    run_checker_config
    run_trace_config
    run_fault_config
    run_tsan_config
    ;;
  *)
    echo "usage: $0 [release|sanitize|checker|trace|fault|tsan|all]" >&2
    exit 2
    ;;
esac

echo "==== all configs green ===="
