#!/usr/bin/env bash
# Staged CI gate. Each stage is individually invocable so failures
# attribute to a stage instead of one monolithic log:
#
#   ./ci.sh lint          # cargo fmt --check + clippy -D warnings
#   ./ci.sh build         # release build of the whole workspace
#   ./ci.sh test          # full test suite, each binary under a wall-clock bound
#   ./ci.sh determinism   # serial-vs-sharded byte-identity suites
#   ./ci.sh reports       # report bins + BENCH_*.json trajectory schema check
#   ./ci.sh golden        # golden campaign report drift check
#   ./ci.sh explore       # coverage-guided explore smoke (small budget)
#   ./ci.sh corpus        # corpus synthesis/inference tests + corpus-seeded explore smoke, run twice
#   ./ci.sh bench-smoke   # columnar serde + cluster-scale substrate smokes
#   ./ci.sh serve         # csi-serve daemon tests + multi-tenant load smoke
#   ./ci.sh all           # everything above, in order (the default)
#
# The usage string, `all`, and the dispatch below are all derived from the
# single STAGES list, so a new stage cannot be invocable yet silently
# missing from `all` (the drift `bench-smoke` once had).
#
# Everything runs offline against the vendored dependency stubs.
set -euo pipefail
cd "$(dirname "$0")"

# The one stage list. A stage named `foo-bar` is implemented by a
# function `stage_foo_bar`.
STAGES=(lint build test determinism reports golden explore corpus bench-smoke serve)

# Fails when the fixed string $1 appears in crates/*/src outside the file
# $2, printing each offending file and line.
one_home() {
  local hits
  hits="$(grep -rnF --include='*.rs' -e "$1" crates/*/src | grep -v "^$2:" || true)"
  if [ -n "$hits" ]; then
    echo "'$1' belongs only in $2; found elsewhere:" >&2
    echo "$hits" >&2
    return 1
  fi
}

stage_lint() {
  echo "==> fmt (check only)"
  cargo fmt --all --check
  echo "==> clippy (deny warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
  echo "==> one home each for the executor, the hash and the generators"
  local ok=1
  one_home 'thread::scope(' crates/csi-test/src/shard.rs || ok=0
  one_home '0xcbf2_9ce4_8422_2325' crates/csi-core/src/hash.rs || ok=0
  one_home '<< 13' crates/csi-core/src/rng.rs || ok=0
  one_home '0xBF58_476D_1CE4_E5B9' crates/csi-core/src/rng.rs || ok=0
  [ "$ok" = 1 ]
}

stage_build() {
  echo "==> release build"
  cargo build --release --workspace
}

# Wall-clock bound on each test binary, and on the doctests as a whole.
# The slowest binary takes seconds, so one that overruns this is hung
# (a deadlock, say) and fails the stage by name instead of stalling it.
TEST_BOUND_S=300

stage_test() {
  echo "==> tests (each binary bounded to ${TEST_BOUND_S}s wall clock)"
  local artifacts manifest exe status ran=0 libdir
  artifacts="$(cargo test --workspace --no-run --message-format=json)"
  # Proc-macro test binaries link the toolchain's libstd dynamically;
  # `cargo test` puts its directory on the library path, so do the same.
  libdir="$(rustc --print target-libdir)"
  # One "<package manifest>\t<test executable>" line per test binary.
  while IFS=$'\t' read -r manifest exe; do
    # Run from the package directory, as `cargo test` does: test paths
    # are package-relative.
    status=0
    (cd "$(dirname "$manifest")" &&
      LD_LIBRARY_PATH="$libdir${LD_LIBRARY_PATH:+:$LD_LIBRARY_PATH}" \
        timeout -k 10 "$TEST_BOUND_S" "$exe" -q </dev/null) || status=$?
    if [ "$status" = 124 ] || [ "$status" = 137 ]; then
      echo "test binary $exe ($manifest) exceeded ${TEST_BOUND_S}s" >&2
      return 1
    elif [ "$status" != 0 ]; then
      echo "test binary $exe ($manifest) failed" >&2
      return 1
    fi
    ran=$((ran + 1))
  done < <(printf '%s\n' "$artifacts" |
    sed -n 's/.*"manifest_path":"\([^"]*\)".*"test":true},"features".*"executable":"\([^"]*\)".*/\1\t\2/p')
  if [ "$ran" = 0 ]; then
    echo "found no test binaries in cargo's build output" >&2
    return 1
  fi
  echo "    ${ran} test binaries passed"
  echo "==> doctests (bounded to ${TEST_BOUND_S}s wall clock)"
  status=0
  timeout -k 10 "$TEST_BOUND_S" cargo test -q --workspace --doc || status=$?
  if [ "$status" = 124 ] || [ "$status" = 137 ]; then
    echo "doctests exceeded ${TEST_BOUND_S}s" >&2
    return 1
  fi
  return "$status"
}

stage_determinism() {
  echo "==> determinism (serial vs parallel campaign)"
  cargo test -q -p csi-test --test determinism
  echo "==> fault matrix (injection determinism + taxonomy coverage)"
  cargo test -q -p csi-test --test fault_matrix
  echo "==> boundary traces (side-effect-free, serial == sharded)"
  cargo test -q -p csi-test --test trace
}

stage_reports() {
  echo "==> boundary trace summary (per-channel crossing counts)"
  cargo run -q --release -p csi-bench --bin trace_summary
  echo "==> online detector vs offline oracle (recall 1.0, serial == sharded)"
  cargo run -q --release -p csi-bench --bin detector_report
  echo "==> perf-trajectory schema check (BENCH_*.json)"
  cargo run -q --release -p csi-bench --bin trajectory_check
}

stage_golden() {
  echo "==> golden campaign report"
  cargo test -q -p csi-test --test golden_report
}

stage_explore() {
  echo "==> coverage-guided explore smoke (asserts novel signatures beyond the seed grid)"
  cargo run -q --release -p csi-bench --bin explore -- 42 400 4
  echo "==> k-fault compound smoke (asserts a shrunk multi-fault cross-job cluster, serial == sharded)"
  cargo run -q --release -p csi-bench --bin kfault_explore -- 42 96 4
}

stage_corpus() {
  echo "==> corpus synthesis + schema-inference round-trip tests"
  cargo test -q -p csi-test corpus
  echo "==> corpus-seeded explore smoke, run twice with byte-compared summaries (flakiness guard)"
  local first second
  first="$(cargo run -q --release -p csi-bench --bin corpus_explore -- 42 160 4)"
  second="$(cargo run -q --release -p csi-bench --bin corpus_explore -- 42 160 4)"
  if [ "$first" != "$second" ]; then
    echo "corpus explore smoke is not byte-deterministic across back-to-back runs:" >&2
    diff <(printf '%s\n' "$first") <(printf '%s\n' "$second") >&2 || true
    exit 1
  fi
  echo "    two runs byte-identical"
}

stage_bench_smoke() {
  echo "==> columnar serde smoke (byte-identity + committed speedup floors at 256 rows)"
  cargo run -q --release -p csi-bench --bin serde_batch -- --smoke
  echo "==> cluster-scale substrate smoke (interning/vacuum/slab invariants + sim event-rate floor)"
  cargo run -q --release -p csi-bench --bin cluster_scale -- --smoke
}

stage_serve() {
  echo "==> csi-serve daemon (protocol, scheduler, tenant, end-to-end determinism)"
  cargo test -q -p csi-serve
  echo "==> multi-tenant load smoke (daemon on an ephemeral port, concurrent tenants, byte-identity)"
  cargo run -q --release -p csi-bench --bin load_serve -- --smoke
}

stage_all() {
  local s
  for s in "${STAGES[@]}"; do
    "stage_${s//-/_}"
  done
}

usage() {
  local IFS='|'
  echo "usage: $0 [${STAGES[*]}|all]" >&2
}

stage="${1:-all}"
if [ "$stage" = "all" ]; then
  stage_all
else
  known=0
  for s in "${STAGES[@]}"; do
    [ "$stage" = "$s" ] && known=1
  done
  if [ "$known" = 1 ]; then
    "stage_${stage//-/_}"
  else
    usage
    exit 2
  fi
fi

echo "CI OK (${stage})"
