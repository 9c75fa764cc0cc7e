#!/usr/bin/env bash
# Decode probe: times the daemon's wire decode in two `fenceplace` builds.
#
# Usage: scripts/decode_probe.sh PARENT_BIN CHANGE_BIN [ROUNDS]
#
# Feeds `fenceplace serve --stdio` five copies of one 56 KB
# `analyze` line: module `big`, one function of 3,000 `%i = load @g`
# lines, with `"configs":["Bogus:x86tso"]`. Each request is decoded, then
# refused with `bad_request` before any analysis, so the time per request
# is essentially the wire decode. The two binaries run alternately, one
# run each per round, for ROUNDS rounds (default 15), so load on the host
# hits both alike.
#
# Prints, per binary, the minimum and median milliseconds per request
# and the address of std's `core::str::converts::from_utf8` (`nm -C`)
# with its residue mod 64, then the change/parent ratio of the medians.
# The minimum has moved by 26% between invocations on one pair of
# binaries, so the medians' ratio is the number to read. std's ASCII
# fast-path loop is the 23 bytes at `from_utf8+0x70..+0x87`: it straddles
# a 64-byte cache line exactly when `from_utf8` ≡ 0 mod 64, and every slow
# `serve_edit` build on record put it there, so the probe warns at that
# residue. Run this on both builds before reading a `serve_edit` move as
# a daemon change. It is a measuring tool, not a gate: it always exits 0
# once both binaries ran.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN [ROUNDS]" >&2
  exit 2
fi
parent=$1
change=$2
rounds=${3:-15}
for bin in "$parent" "$change"; do
  [ -x "$bin" ] || { echo "$bin: not an executable" >&2; exit 2; }
done
case "$rounds" in
  '' | *[!0-9]* | 0) echo "ROUNDS must be a positive integer, got '$rounds'" >&2; exit 2 ;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
probe="$work/probe.jsonl"
python3 - > "$probe" <<'PY'
import json
text = "module big\nglobal g 1\n\nfn f params=0 locals=() {\nbb0: ; entry\n"
text += "".join(f"  %{i} = load @g\n" for i in range(3000)) + "  ret\n}\n"
req = {"id": 1, "type": "analyze", "module": "big",
       "configs": ["Bogus:x86tso"], "text": text}
print("\n".join([json.dumps(req, separators=(",", ":"))] * 5))
PY
requests=$(wc -l < "$probe")

# run_once BIN OUT: appends one run's milliseconds per request to OUT.
run_once() {
  local start end
  start=$EPOCHREALTIME
  "$1" serve --stdio < "$probe" > "$work/responses"
  end=$EPOCHREALTIME
  grep -q '"bad_request"' "$work/responses" || {
    echo "$1: the probe was not refused with bad_request" >&2
    exit 1
  }
  awk -v s="$start" -v e="$end" -v n="$requests" \
    'BEGIN { printf "%.3f\n", (e - s) * 1000 / n }' >> "$2"
}

for _ in $(seq 1 "$rounds"); do
  run_once "$parent" "$work/parent.ms"
  run_once "$change" "$work/change.ms"
done

# median FILE: the median of one binary's ms per request.
median() {
  sort -n "$1" | awk '{ v[NR] = $1 }
    END { printf "%.3f\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# summary LABEL BIN FILE: min and median ms per request, from_utf8
# address and its residue mod 64.
summary() {
  local addr residue=""
  # awk reads all of nm's output: leaving early would end nm with SIGPIPE.
  addr=$(nm -C "$2" 2>/dev/null |
    awk '/ core::str::converts::from_utf8$/ && !found { sub(/^0+/, "", $1); print "0x" $1; found = 1 }' ||
    true)
  [ -n "$addr" ] && residue=$((addr % 64))
  sort -n "$3" | awk -v label="$1" -v addr="${addr:-unknown}" -v residue="${residue:-?}" \
    -v median="$(median "$3")" '
    NR == 1 { min = $1 }
    END {
      printf "%-7s min %8.3f ms/req  median %8.3f ms/req  from_utf8 %s (mod 64 = %s)\n",
        label, min, median, addr, residue
    }'
  if [ "$residue" = 0 ]; then
    echo "warning: $1 from_utf8 is 0 mod 64: its ASCII loop (+0x70..+0x87) straddles a cache line"
  fi
}

echo "decode probe: $rounds rounds of $requests requests, binaries alternating"
summary parent "$parent" "$work/parent.ms"
summary change "$change" "$work/change.ms"
awk -v p="$(median "$work/parent.ms")" -v c="$(median "$work/change.ms")" \
  'BEGIN { printf "change/parent median ratio %.3f\n", c / p }'
