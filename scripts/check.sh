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
#   certify  litmus regressions + differential certify fuzz + CLI smoke
#   stream   windowed-vs-resident differential + CLI --window smoke
#   serve    service suite (protocol contract + cache pins) + daemon smoke
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
  echo "== litmus regressions + certify fuzz =="
  cargo test -q -p fence-suite --test litmus_pipeline --test certify_fuzz

  echo "== fenceplace --certify smoke (corpus, Control:x86tso) =="
  # Bounded state budget keeps the smoke fast; inconclusive/skipped
  # certifications exit 0, an unsound one exits 2 and fails the stage.
  cargo run --release --quiet --bin fenceplace -- \
    --program 'corpus:*' --config Control:x86tso \
    --certify-states 50000 --seq
}

stage_stream() {
  echo "== windowed-vs-resident differential =="
  cargo test -q -p fence-suite --test stream

  echo "== fenceplace --window smoke (kernels) =="
  # Windowed admission over the built-in kernels must complete cleanly;
  # any quarantined module or unsound certification exits 2 and fails
  # the stage.
  cargo run --release --quiet --bin fenceplace -- \
    --program 'kernel:*' --config Control:x86tso --config Pensieve:weak \
    --window 4
}

stage_serve() {
  echo "== service suite (protocol contract, service≡CLI differential, cache pins) =="
  cargo test -q -p fence-suite --test service

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
