#!/usr/bin/env bash
# Tier-1 gate, split into stages so local use and the CI jobs in
# .github/workflows/ci.yml share one source of truth.
#
# Usage: scripts/check.sh [STAGE]...
#
#   build    cargo build --release
#   test     cargo test -q
#   clippy   cargo clippy --all-targets -- -D warnings
#   fmt      cargo fmt --check
#   lint     clippy + fmt
#   docs     cargo doc --no-deps (RUSTDOCFLAGS=-D warnings) + cargo test --doc
#   bench    cargo bench --no-run (compile smoke for every bench harness)
#   faults   cargo test --features faultinject (fault-injection matrix)
#   certify  memsim tests + litmus regressions + differential certify fuzz
#            + certification and simulator goldens + explorer memory pin
#            + CLI smoke, which prints the verdict tally per target
#   stream   windowed-vs-resident differential + the fleet's result-heap pin
#            + CLI --window and pack: smokes (the pack: smoke runs a pooled
#            and a --seq window and no window, and diffs the three)
#   serve    service suite (protocol contract + cache pins) + capped-cache
#            memory pin + daemon smoke + restart on a killed daemon's socket
#   perfbench  the benchmark harness compiles and its tests pass
#   all      every stage above, in CI order (the default)
set -euo pipefail
cd "$(dirname "$0")/.."

stage_build() {
  echo "== cargo build --release =="
  cargo build --release
}

stage_test() {
  echo "== cargo test -q =="
  cargo test -q
}

stage_clippy() {
  echo "== cargo clippy --all-targets -- -D warnings =="
  cargo clippy --all-targets -- -D warnings
}

stage_fmt() {
  echo "== cargo fmt --check =="
  cargo fmt --check
}

stage_docs() {
  echo "== cargo doc --no-deps (RUSTDOCFLAGS=-D warnings) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

  echo "== cargo test --doc =="
  cargo test -q --doc
}

stage_bench() {
  echo "== cargo bench --no-run =="
  cargo bench --no-run
}

stage_faults() {
  echo "== cargo test --features faultinject (fault matrix) =="
  cargo test -q -p fence-suite --features faultinject --test faults
  cargo test -q -p fenceplace --features faultinject --lib
}

stage_certify() {
  echo "== memsim unit tests + litmus families =="
  cargo test -q -p memsim

  echo "== litmus regressions + certify fuzz + certification and simulator goldens + explorer memory pin =="
  cargo test -q -p fence-suite --test litmus_pipeline --test certify_fuzz --test golden_certify \
    --test explorer_memory

  echo "== fenceplace --certify smoke (kernels + corpus, Control:x86tso + Control:weak) =="
  # Bounded state budget keeps the smoke fast; inconclusive/skipped
  # certifications exit 0, an unsound one exits 2 and fails the stage.
  # The verdict tally per target is printed either way; it does not gate.
  local certify_out status=0
  certify_out="$(mktemp -d)"
  cargo run --release --quiet --bin fenceplace -- \
    --program 'kernel:*' --program 'corpus:*' \
    --config Control:x86tso --config Control:weak \
    --certify-states 50000 --seq --out "$certify_out" || status=$?
  echo "-- certification verdicts per target --"
  { grep -ho '"target": "[^"]*", "status": "[^"]*"' "$certify_out"/*.json || true; } |
    awk -F'"' '{ n[$4, $8]++; seen[$4] = 1 }
      END {
        split("certified not_minimal inconclusive skipped unsound", verdicts, " ")
        for (target in seen) {
          line = target ":"
          for (i = 1; i <= 5; i++) line = line " " verdicts[i] " " (n[target, verdicts[i]] + 0)
          print line
        }
      }' | sort
  rm -rf "$certify_out"
  return "$status"
}

stage_stream() {
  echo "== windowed-vs-resident differential + fleet result-heap pin =="
  # fleet_memory streams a config sweep resident and windowed and pins
  # the heap it adds: results hold no fenced module copies.
  cargo test -q -p fence-suite --test stream --test fleet_memory

  echo "== fenceplace --window smoke (kernels) =="
  # Windowed admission over the built-in kernels must complete cleanly;
  # any quarantined module or unsound certification exits 2 and fails
  # the stage.
  cargo run --release --quiet --bin fenceplace -- \
    --program 'kernel:*' --config Control:x86tso --config Pensieve:weak \
    --window 4

  echo "== fenceplace pack: smoke (dumped kernels + corpus + one malformed module), windowed pooled and --seq, and resident =="
  # The smoke above feeds built-in modules only; this one sends printed IR
  # through the pack splitter and the parser. The malformed module must be
  # the run's one invalid_ir slot (exit 2), and every other module must run.
  cargo build --release --quiet --bin fenceplace --bin dump_ir
  pack_dir="$(mktemp -d)"
  trap 'rm -rf "$pack_dir"' EXIT
  for prog in Dekker "MCS Lock" FFT Matrix; do
    ./target/release/dump_ir "$prog"
  done > "$pack_dir/smoke.pack"
  printf 'module malformed\nfn f params=0 locals=() {\nbb0:\n  frob c1\n  ret\n}\n' \
    >> "$pack_dir/smoke.pack"
  # run_pack NAME [FLAG]...: one run, reports in $pack_dir/NAME, roll-up
  # in $pack_dir/NAME.json.
  run_pack() {
    local name=$1 status=0
    shift
    ./target/release/fenceplace --program "pack:$pack_dir/smoke.pack" \
      --out "$pack_dir/$name" "$@" > "$pack_dir/$name.json" || status=$?
    [ "$status" -eq 2 ] || { echo "pack smoke ($name) exited $status, want 2" >&2; exit 1; }
  }
  run_pack pooled --window 4
  run_pack seq --window 4 --seq
  run_pack resident
  pack_ok=$(grep -c '"status": "ok"' "$pack_dir/pooled.json" || true)
  pack_invalid=$(grep -c '"status": "invalid_ir"' "$pack_dir/pooled.json" || true)
  [ "$pack_ok" -eq 4 ] && [ "$pack_invalid" -eq 1 ] || {
    echo "pack smoke: $pack_ok ok and $pack_invalid invalid_ir modules, want 4 and 1" >&2
    exit 1
  }
  # Sequential and pooled windows and the run without a window agree:
  # the same per-module reports, and the same roll-up apart from wall_ms
  # and the "stream" line, which records the window and its residency
  # peaks (a pooled window's are measured and follow worker timing).
  rollup_core() { grep -v '^  "stream": ' "$1" | sed 's/, "wall_ms": [0-9.]*//'; }
  for other in seq resident; do
    diff -r -x fleet_summary.json "$pack_dir/pooled" "$pack_dir/$other"
    diff <(rollup_core "$pack_dir/pooled.json") <(rollup_core "$pack_dir/$other.json")
  done
  rm -rf "$pack_dir"
  trap - EXIT
}

stage_serve() {
  echo "== service suite (protocol contract, service≡CLI differential, cache pins, memory pin) =="
  cargo test -q -p fence-suite --test service --test service_memory

  echo "== serve daemon smoke (cold corpus, warm --expect-hit corpus, shutdown) =="
  # Start a daemon, run the full corpus through it twice — the second
  # pass must be served entirely from cache — then shut it down cleanly.
  serve_dir="$(mktemp -d)"
  serve_sock="$serve_dir/fenceplace.sock"
  cargo build --release --quiet --bin fenceplace
  ./target/release/fenceplace serve --socket "$serve_sock" &
  serve_daemon=$!
  trap 'kill "$serve_daemon" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
  for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
  done
  [ -S "$serve_sock" ] || { echo "daemon never bound $serve_sock" >&2; exit 1; }

  ./target/release/fenceplace client --socket "$serve_sock" \
    --program 'kernel:*' --program 'corpus:*' --config Control:x86tso
  ./target/release/fenceplace client --socket "$serve_sock" \
    --program 'kernel:*' --program 'corpus:*' --config Control:x86tso \
    --expect-hit
  ./target/release/fenceplace client --socket "$serve_sock" --shutdown
  wait "$serve_daemon"
  [ ! -e "$serve_sock" ] || { echo "daemon left its socket file behind" >&2; exit 1; }

  echo "== serve restart after kill -9 (stale socket replaced) =="
  # A daemon killed by SIGKILL leaves its socket file behind. A second
  # daemon on the same path must replace it, answer a request, and
  # remove the file on clean shutdown.
  ./target/release/fenceplace serve --socket "$serve_sock" &
  serve_daemon=$!
  for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.1
  done
  [ -S "$serve_sock" ] || { echo "daemon never bound $serve_sock" >&2; exit 1; }
  kill -9 "$serve_daemon"
  wait "$serve_daemon" 2>/dev/null || true
  [ -S "$serve_sock" ] || { echo "the killed daemon left no socket file" >&2; exit 1; }
  ./target/release/fenceplace serve --socket "$serve_sock" &
  serve_daemon=$!
  served=0
  for _ in $(seq 1 100); do
    if ./target/release/fenceplace client --socket "$serve_sock" \
      --program 'kernel:*' --config Control:x86tso > /dev/null 2>&1; then
      served=1
      break
    fi
    sleep 0.1
  done
  [ "$served" -eq 1 ] || { echo "no daemon served $serve_sock after the restart" >&2; exit 1; }
  ./target/release/fenceplace client --socket "$serve_sock" --shutdown
  wait "$serve_daemon"
  [ ! -e "$serve_sock" ] || { echo "restarted daemon left its socket file behind" >&2; exit 1; }
  rm -rf "$serve_dir"
  trap - EXIT
}

stage_perfbench() {
  echo "== perfbench harness (cargo test --release, own workspace) =="
  # perfbench/ builds against the workspace crates by path, so a core
  # API change that breaks it fails here instead of at benchmark time.
  cargo test -q --release --manifest-path perfbench/Cargo.toml
}

run_stage() {
  case "$1" in
    build)  stage_build ;;
    test)   stage_test ;;
    clippy) stage_clippy ;;
    fmt)    stage_fmt ;;
    lint)   stage_clippy; stage_fmt ;;
    docs)   stage_docs ;;
    bench)  stage_bench ;;
    faults) stage_faults ;;
    certify) stage_certify ;;
    stream) stage_stream ;;
    serve)  stage_serve ;;
    perfbench) stage_perfbench ;;
    all)    stage_build; stage_test; stage_clippy; stage_fmt; stage_docs; stage_bench; stage_faults; stage_certify; stage_stream; stage_serve; stage_perfbench ;;
    *)
      echo "unknown stage '$1' (build|test|clippy|fmt|lint|docs|bench|faults|certify|stream|serve|perfbench|all)" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ]; then
  set -- all
fi
for stage in "$@"; do
  run_stage "$stage"
done

echo "tier-1 OK ($*)"
