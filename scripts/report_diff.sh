#!/usr/bin/env bash
# Report diff: runs two `fenceplace` builds over one matrix of inputs and
# compares everything they write.
#
# Usage: scripts/report_diff.sh PARENT_BIN CHANGE_BIN
#
# The matrix, every run on both binaries with `--out`:
#   * `kernel:*` + `corpus:*` under the 9 automatic configs plus
#     `Manual:x86tso`, with no window, `--window 3`, `--window 3 --seq`
#     and `--seq`;
#   * the same programs certified (`--certify --certify-states 50000`)
#     under `Control:x86tso` and `Control:weak`;
#   * the same programs and configs under `--budget 200`;
#   * `corpus:Matrix` + `corpus:Canneal` certified under
#     `Control:x86tso` and `Control:weak` at the default budget (400,000
#     states), since the 50,000-state run stops both early: the one run
#     whose passes explore hundreds of thousands of states (1-3 s per
#     binary on 2 vCPUs);
#   * a `pack:` of the Table II kernels as `dump_ir` prints them plus one
#     malformed module, beside a `file:` that does not exist, with no
#     window and with `--window 3`.
#
# For each run it compares the two exit codes; every per-module report,
# with `cmp`; the roll-up (stdout and `fleet_summary.json`) without
# `wall_ms`, and for a pooled window also without the `"stream"` line,
# whose residency peaks follow worker timing; and stderr, with the output
# directories masked. It prints one line per run and exits 1 if any run
# differs. `dump_ir` is taken from CHANGE_BIN's directory (`cargo build
# --release` builds both).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi
parent=$1
change=$2
for bin in "$parent" "$change"; do
  [ -x "$bin" ] || { echo "$bin: not an executable" >&2; exit 2; }
done
dump_ir="$(dirname "$change")/dump_ir"
[ -x "$dump_ir" ] || { echo "$dump_ir: not an executable (cargo build --release builds it)" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"

# The kernels, printed, then one module the parser rejects.
pack="$work/kernels.pack"
"$dump_ir" | awk '/^available kernels:/ { k = 1; next } k { sub(/^ +/, ""); print }' |
  while IFS= read -r kernel; do "$dump_ir" "$kernel"; done > "$pack"
printf 'module malformed\nfn f params=0 locals=() {\nbb0:\n  frob c1\n  ret\n}\n' >> "$pack"

programs=(--program 'kernel:*' --program 'corpus:*')
configs=()
for variant in Pensieve Control AddressControl; do
  for target in x86tso sc weak; do
    configs+=(--config "$variant:$target")
  done
done
configs+=(--config Manual:x86tso)

# rollup FILE POOLED: the roll-up without wall_ms, and without the
# "stream" line when POOLED is yes.
rollup() {
  if [ "$2" = yes ]; then
    { grep -v '^  "stream": ' "$1" || true; }
  else
    cat "$1"
  fi | sed 's/, "wall_ms": [0-9.]*//'
}

failed=0
# compare NAME POOLED ARG...: runs both binaries with ARG... and compares
# what they wrote.
compare() {
  local name=$1 pooled=$2 side bin code diffs=() report reports
  shift 2
  for side in parent change; do
    bin=$parent
    [ "$side" = change ] && bin=$change
    code=0
    "$bin" "$@" --out "$work/$side/$name" > "$work/$side/$name.stdout" \
      2> "$work/$side/$name.stderr" || code=$?
    echo "$code" > "$work/$side/$name.exit"
    sed "s|$work/$side/$name|OUT|g" "$work/$side/$name.stderr" > "$work/$side/$name.masked"
    mkdir -p "$work/$side/$name"
  done
  local p="$work/parent/$name" c="$work/change/$name"
  cmp -s "$p.exit" "$c.exit" || diffs+=("exit $(cat "$p.exit") vs $(cat "$c.exit")")
  if [ "$(ls "$p")" != "$(ls "$c")" ]; then
    diffs+=("report file names")
  fi
  reports=0
  for report in "$p"/*.json; do
    [ -e "$report" ] || continue
    report=$(basename "$report")
    [ "$report" = fleet_summary.json ] && continue
    reports=$((reports + 1))
    [ -e "$c/$report" ] || continue
    cmp -s "$p/$report" "$c/$report" || diffs+=("$report")
  done
  cmp -s <(rollup "$p.stdout" "$pooled") <(rollup "$c.stdout" "$pooled") || diffs+=("stdout roll-up")
  if [ -e "$p/fleet_summary.json" ] || [ -e "$c/fleet_summary.json" ]; then
    cmp -s <(rollup "$p/fleet_summary.json" "$pooled" 2>/dev/null) \
      <(rollup "$c/fleet_summary.json" "$pooled" 2>/dev/null) || diffs+=("fleet_summary.json")
  fi
  cmp -s "$p.masked" "$c.masked" || diffs+=("stderr")
  if [ "${#diffs[@]}" -eq 0 ]; then
    printf 'same  %-16s exit %s, %d reports\n' "$name" "$(cat "$p.exit")" "$reports"
  else
    local IFS=,
    printf 'DIFF  %-16s %s\n' "$name" "${diffs[*]}"
    failed=1
  fi
}

compare resident no "${programs[@]}" "${configs[@]}"
compare window3 yes "${programs[@]}" "${configs[@]}" --window 3
compare window3-seq no "${programs[@]}" "${configs[@]}" --window 3 --seq
compare seq no "${programs[@]}" "${configs[@]}" --seq
compare certify no "${programs[@]}" --config Control:x86tso --config Control:weak \
  --certify --certify-states 50000
compare certify-deep no --program corpus:Matrix --program corpus:Canneal \
  --config Control:x86tso --config Control:weak --certify
compare budget200 no "${programs[@]}" "${configs[@]}" --budget 200
compare pack no --program "pack:$pack" --program "file:$work/missing.ir" "${configs[@]}"
compare pack-window3 yes --program "pack:$pack" --program "file:$work/missing.ir" \
  "${configs[@]}" --window 3

if [ "$failed" -ne 0 ]; then
  echo "the two builds differ" >&2
  exit 1
fi
echo "no difference"
