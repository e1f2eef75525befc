#!/usr/bin/env bash
# Local CI, step-runner edition: .github/workflows/ci.yml dispatches the
# named steps below — this file is the single source of truth for what
# CI runs, so a green `./ci.sh` locally means a green pipeline.
# Everything is --offline per the hermetic-build policy (zero registry
# dependencies).
#
# Usage: ./ci.sh [step...]       (no arguments = every step, in order)
# Steps: build test fmt clippy sfcheck sarif fix cache threads strategy
#        artifacts bench
set -euo pipefail
cd "$(dirname "$0")"

# One EXIT trap over a cleanup registry, so a failing step (e.g. a bench
# count-match) never leaves stale temp files behind.
CLEANUP_PATHS=()
cleanup() {
  local p
  for p in ${CLEANUP_PATHS[@]+"${CLEANUP_PATHS[@]}"}; do rm -rf "$p"; done
}
trap cleanup EXIT

step_build() {
  echo "==> tier-1: release build"
  cargo build --release --offline
}

step_test() {
  echo "==> tier-1: test suite"
  cargo test -q --offline --workspace
}

step_fmt() {
  echo "==> lint: rustfmt"
  cargo fmt --check
}

step_clippy() {
  echo "==> lint: clippy over the whole workspace (warnings are errors)"
  cargo clippy --workspace --all-targets --offline -- -D warnings
}

step_sfcheck() {
  echo "==> sfcheck: repo-invariant static analysis"
  cargo run -p sfcheck --offline
}

step_sarif() {
  echo "==> sfcheck: SARIF artifact"
  cargo run -q -p sfcheck --offline -- --sarif > sfcheck.sarif.json
  echo "    wrote sfcheck.sarif.json ($(wc -c < sfcheck.sarif.json) bytes)"
}

step_fix() {
  echo "==> sfcheck: --fix idempotency (double pass on a temp copy)"
  local tmp first second
  tmp="$(mktemp -d)"
  CLEANUP_PATHS+=("$tmp")
  # Copy the tree (sans build products / VCS) so --fix never touches the
  # real checkout here; the second pass must apply zero fixes.
  rsync -a --exclude target --exclude .git ./ "$tmp/" 2>/dev/null \
    || cp -r ./crates ./Cargo.toml ./sfcheck.baseline.json "$tmp/"
  first="$(cargo run -q -p sfcheck --offline -- --fix --root "$tmp" | tail -1)"
  second="$(cargo run -q -p sfcheck --offline -- --fix --root "$tmp" | tail -1)"
  echo "    first:  $first"
  echo "    second: $second"
  case "$second" in
    *"applied 0 fix(es) in 0 file(s)"*) ;;
    *) echo "    ERROR: second --fix pass was not a no-op" >&2; exit 1 ;;
  esac
  if ! diff -rq --exclude target --exclude .git ./crates "$tmp/crates" > /dev/null; then
    echo "    ERROR: --fix modified a clean tree" >&2
    diff -rq --exclude target --exclude .git ./crates "$tmp/crates" >&2 || true
    exit 1
  fi
}

step_cache() {
  echo "==> sfcheck: incremental cache (cold vs warm, byte-identity + hit mode + speedup)"
  local bin=target/release/sfcheck cold_json warm_json cold_sarif warm_sarif
  local t0 t1 cold_ms warm_ms best_warm_ms i t mode
  cargo build -q --release --offline -p sfcheck
  cold_json="$(mktemp)"; warm_json="$(mktemp)"
  cold_sarif="$(mktemp)"; warm_sarif="$(mktemp)"
  CLEANUP_PATHS+=("$cold_json" "$warm_json" "$cold_sarif" "$warm_sarif")
  rm -rf target/sfcheck-cache
  t0="$(date +%s%N)"; "$bin" --json > "$cold_json"; t1="$(date +%s%N)"
  cold_ms=$(( (t1 - t0) / 1000000 ))
  "$bin" --sarif > "$cold_sarif"
  # Best of three warm runs: end-to-end millisecond timings are noisy on
  # loaded runners, so the wall-clock bound below is a loose sanity check
  # — the hard gate is the stats.json hit mode.
  best_warm_ms=""
  for i in 1 2 3; do
    t0="$(date +%s%N)"; "$bin" --json > "$warm_json"; t1="$(date +%s%N)"
    warm_ms=$(( (t1 - t0) / 1000000 ))
    if [ -z "$best_warm_ms" ] || [ "$warm_ms" -lt "$best_warm_ms" ]; then
      best_warm_ms="$warm_ms"
    fi
  done
  "$bin" --sarif > "$warm_sarif"
  echo "    cold: ${cold_ms}ms, warm (best of 3): ${best_warm_ms}ms"
  if ! cmp -s "$cold_json" "$warm_json"; then
    echo "    ERROR: warm --json output differs from cold" >&2
    diff "$cold_json" "$warm_json" | head >&2 || true
    exit 1
  fi
  if ! cmp -s "$cold_sarif" "$warm_sarif"; then
    echo "    ERROR: warm --sarif output differs from cold" >&2
    exit 1
  fi
  # The semantic cache gate: an unchanged tree must take the full-skip
  # path, and stats.json records which path ran. Wall clock can lie on a
  # loaded runner; the recorded mode cannot.
  mode="$(sed -n 's/.*"mode"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' target/sfcheck-cache/stats.json)"
  if [ "$mode" != "warm-full" ]; then
    echo "    ERROR: expected a warm-full cache hit on the unchanged tree, stats.json says mode='$mode'" >&2
    exit 1
  fi
  if [ $(( best_warm_ms * 2 )) -gt "$cold_ms" ]; then
    echo "    ERROR: best warm run (${best_warm_ms}ms) is not >=2x faster than cold (${cold_ms}ms)" >&2
    exit 1
  fi
  # Warm hits must be thread-count independent, like everything else.
  for t in 1 4 8; do
    SMARTFEAT_THREADS="$t" "$bin" --json > "$warm_json"
    if ! cmp -s "$cold_json" "$warm_json"; then
      echo "    ERROR: warm --json under SMARTFEAT_THREADS=$t differs from cold" >&2
      exit 1
    fi
  done
  echo "    byte-identical across cold/warm and SMARTFEAT_THREADS=1/4/8"
  mkdir -p ci-artifacts
  cp target/sfcheck-cache/stats.json ci-artifacts/sfcheck-cache-stats.json
  echo "    wrote ci-artifacts/sfcheck-cache-stats.json ($(cat ci-artifacts/sfcheck-cache-stats.json))"

  # v4 lock lints through the full binary: a fixture tree tripping all
  # four, cold/warm byte-identity, the partial path for a non-lock edit,
  # and the forced-full path for a lock-relevant edit (DESIGN.md §16).
  echo "==> sfcheck: lock-lint fixture tree (cold/warm identity + invalidation paths)"
  local fixroot lockfile fix_cold fix_warm fix_ref fmode lint
  fixroot="$(mktemp -d)"
  fix_cold="$(mktemp)"; fix_warm="$(mktemp)"; fix_ref="$(mktemp)"
  CLEANUP_PATHS+=("$fixroot" "$fix_cold" "$fix_warm" "$fix_ref")
  mkdir -p "$fixroot/crates/app/src"
  printf '[package]\nname = "app"\n' > "$fixroot/crates/app/Cargo.toml"
  lockfile="$fixroot/crates/app/src/lib.rs"
  cat > "$lockfile" <<'FIXTURE'
use std::sync::Mutex;
static ALPHA: Mutex<u64> = Mutex::new(0);
static BETA: Mutex<u64> = Mutex::new(0);
pub fn ordered() {
    let a = ALPHA.lock().unwrap();
    let b = BETA.lock().unwrap();
    drop(b);
    drop(a);
}
pub fn reversed() {
    let b = BETA.lock().unwrap();
    let a = ALPHA.lock().unwrap();
    drop(a);
    drop(b);
}
pub fn twice() {
    let a = ALPHA.lock().unwrap();
    let b = ALPHA.lock().unwrap();
    drop(b);
    drop(a);
}
pub fn held(worker: std::thread::JoinHandle<()>) {
    let a = ALPHA.lock().unwrap();
    let _r = worker.join();
    drop(a);
}
pub fn forgotten() {
    let _ = ALPHA.lock();
}
FIXTURE
  printf 'pub fn plain(n: u64) -> u64 { n + 1 }\n' > "$fixroot/crates/app/src/plain.rs"
  "$bin" --root "$fixroot" --json > "$fix_cold" || true
  for lint in lock-order-inversion double-lock held-lock-blocking guard-discipline; do
    if ! grep -q "\"$lint\"" "$fix_cold"; then
      echo "    ERROR: lock fixture did not trip $lint" >&2
      exit 1
    fi
  done
  for t in 1 4 8; do
    SMARTFEAT_THREADS="$t" "$bin" --root "$fixroot" --json > "$fix_warm" || true
    if ! cmp -s "$fix_cold" "$fix_warm"; then
      echo "    ERROR: warm lock-fixture --json under SMARTFEAT_THREADS=$t differs from cold" >&2
      exit 1
    fi
    SMARTFEAT_THREADS="$t" "$bin" --root "$fixroot" --sarif > "$fix_warm" || true
    "$bin" --root "$fixroot" --no-cache --sarif > "$fix_ref" || true
    if ! cmp -s "$fix_warm" "$fix_ref"; then
      echo "    ERROR: warm lock-fixture --sarif under SMARTFEAT_THREADS=$t differs from --no-cache" >&2
      exit 1
    fi
  done
  # A non-lock edit keeps the scoped partial path...
  printf '// trailing comment, no lock relevance\n' >> "$fixroot/crates/app/src/plain.rs"
  "$bin" --root "$fixroot" --json > "$fix_warm" || true
  fmode="$(sed -n 's/.*"mode"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' "$fixroot/target/sfcheck-cache/stats.json")"
  if [ "$fmode" != "warm-partial" ]; then
    echo "    ERROR: non-lock edit should take the partial path, stats.json says mode='$fmode'" >&2
    exit 1
  fi
  "$bin" --root "$fixroot" --no-cache --json > "$fix_ref" || true
  if ! cmp -s "$fix_warm" "$fix_ref"; then
    echo "    ERROR: partial-path lock-fixture --json differs from --no-cache" >&2
    exit 1
  fi
  # ...while a lock-relevant edit forces full re-analysis (order pairs
  # can span call-graph-disconnected files, so scoping would be unsound).
  printf '// touched: still mentions Mutex\n' >> "$lockfile"
  "$bin" --root "$fixroot" --json > "$fix_warm" || true
  fmode="$(sed -n 's/.*"mode"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' "$fixroot/target/sfcheck-cache/stats.json")"
  if [ "$fmode" != "cold" ]; then
    echo "    ERROR: lock-relevant edit must force full re-analysis, stats.json says mode='$fmode'" >&2
    exit 1
  fi
  "$bin" --root "$fixroot" --no-cache --json > "$fix_ref" || true
  if ! cmp -s "$fix_warm" "$fix_ref"; then
    echo "    ERROR: post-lock-edit --json differs from --no-cache" >&2
    exit 1
  fi
  echo "    lock fixture: all four lints live, identity holds, invalidation paths verified"
}

step_threads() {
  local t
  for t in 1 4; do
    echo "==> determinism matrix: SMARTFEAT_THREADS=$t"
    SMARTFEAT_THREADS="$t" cargo test -q --offline --workspace
  done
}

step_strategy() {
  echo "==> strategy + cascade determinism: differential oracles + 1/4/8 re-exec matrices"
  # strategy_oracle and cascade re-exec themselves per SMARTFEAT_THREADS
  # value; strategy_trace pins the blessed per-strategy trace goldens
  # and prop_search the search invariants (width/population/turn/FM
  # budget).
  cargo test -q --offline \
    --test strategy_oracle --test strategy_trace --test prop_search --test cascade
}

step_artifacts() {
  echo "==> observability artifacts: cascade CLI run (metrics + trace JSON)"
  mkdir -p ci-artifacts
  printf '%s\n' \
    'age,bmi,smoker,children,label' \
    '19,27.9,yes,0,1' '33,22.7,no,1,0' '28,33.0,no,3,0' '45,25.7,yes,2,1' \
    '52,30.9,no,0,1' '23,34.4,no,0,0' '56,39.8,no,0,1' '27,42.1,yes,1,1' \
    '19,24.6,no,1,0' '61,29.0,no,2,1' \
    > ci-artifacts/smoke.csv
  cargo run -q --offline -p smartfeat --bin smartfeat -- \
    --csv ci-artifacts/smoke.csv --target label --cascade \
    --metrics-out ci-artifacts/metrics.json \
    --trace-out ci-artifacts/trace.jsonl > /dev/null
  if ! grep -q '"routing"' ci-artifacts/metrics.json; then
    echo "    ERROR: cascade metrics lack per-family routing stats" >&2
    exit 1
  fi
  echo "    wrote ci-artifacts/metrics.json ($(wc -c < ci-artifacts/metrics.json) bytes)"
  echo "    wrote ci-artifacts/trace.jsonl ($(wc -l < ci-artifacts/trace.jsonl) events)"
}

step_bench() {
  # Not a perf gate — numbers from shared CI hardware are noise. This
  # only proves each harness runs end to end and emits one JSON line per
  # benchmark in its checked-in BENCH_*.json baseline (recorded on a
  # quiet machine; regenerate per EXPERIMENTS.md). Every baseline names
  # its bench source via a "ci-baseline: <file>" marker comment, so
  # checking in BENCH_PR10.json plus a marked bench is all a future PR
  # needs to be gated here. KEEP_BENCH_SMOKE=1 preserves the sink files
  # for CI artifact upload; otherwise the EXIT trap removes them even
  # when a count-match fails.
  local base src bench sink smoke_lines base_lines
  for base in BENCH_*.json; do
    src="$(grep -rl "ci-baseline: $base" crates/bench/benches || true)"
    if [ -z "$src" ]; then
      echo "    ERROR: no bench under crates/bench/benches carries a 'ci-baseline: $base' marker" >&2
      exit 1
    fi
    if [ "$(printf '%s\n' "$src" | wc -l)" -ne 1 ]; then
      echo "    ERROR: multiple benches claim $base: $src" >&2
      exit 1
    fi
    bench="$(basename "$src" .rs)"
    sink="$PWD/bench-smoke-$bench.json"
    if [ "${KEEP_BENCH_SMOKE:-0}" != "1" ]; then
      CLEANUP_PATHS+=("$sink")
    fi
    echo "==> bench smoke: $bench matches $base"
    rm -f "$sink"
    # The sink path must be absolute: cargo runs bench binaries with the
    # package directory as cwd, not the workspace root.
    SMARTFEAT_BENCH_SAMPLES=2 SMARTFEAT_BENCH_JSON="$sink" \
      cargo bench -p smartfeat-bench --bench "$bench" --offline > /dev/null
    smoke_lines="$(wc -l < "$sink")"
    base_lines="$(wc -l < "$base")"
    echo "    bench-smoke-$bench.json: $smoke_lines benchmarks (baseline has $base_lines)"
    if [ "$smoke_lines" -ne "$base_lines" ]; then
      echo "    ERROR: bench set drifted from $base — regenerate the baseline" >&2
      exit 1
    fi
  done
}

ALL_STEPS=(build test fmt clippy sfcheck sarif fix cache threads strategy artifacts bench)

main() {
  local steps=("$@") s
  if [ "${#steps[@]}" -eq 0 ]; then
    steps=("${ALL_STEPS[@]}")
  fi
  for s in "${steps[@]}"; do
    if ! declare -F "step_$s" > /dev/null; then
      echo "ci.sh: unknown step '$s' (known: ${ALL_STEPS[*]})" >&2
      exit 2
    fi
    "step_$s"
  done
  echo "==> ci.sh: ${steps[*]}: passed"
}

main "$@"
