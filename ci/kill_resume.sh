#!/usr/bin/env bash
# Kill/resume differential for `fgnvm-repro serve`.
#
#   ci/kill_resume.sh PREFIX KILL_AFTER CHECKPOINT_EVERY OUTPUTS -- SERVE_ARGS...
#
# Runs the same deterministic serve three times:
#   1. an uninterrupted reference, writing PREFIX-ref.*;
#   2. a leg checkpointing every CHECKPOINT_EVERY cycles into PREFIX-ckpts/,
#      SIGKILLed KILL_AFTER seconds in (write-then-rename keeps the newest
#      checkpoint complete);
#   3. a leg resumed from the newest checkpoint, writing PREFIX-resumed.*.
# OUTPUTS is a comma-separated list of FLAG:EXT pairs; each leg gets
# `--FLAG PREFIX-<leg>.EXT`. The resumed leg must reproduce the reference:
# a `.jsonl` stream re-emits only the records past the checkpoint, so it
# must be a byte-suffix of the reference stream; every other output must be
# byte-identical.
#
# Example (from the repository root, after `cargo build --release`):
#   ci/kill_resume.sh soak 3 1000000 metrics-out:json -- \
#     serve configs/fgnvm_8x2.cfg --horizon 20000000 --seed 11
set -euo pipefail

if [ $# -lt 5 ] || [ "$5" != "--" ]; then
  sed -n '2,19p' "$0" >&2
  exit 2
fi
prefix=$1 kill_after=$2 every=$3
IFS=, read -ra outputs <<< "$4"
shift 5
bin=${FGNVM_REPRO:-target/release/fgnvm-repro}

# The output flags of one leg.
leg_outputs() {
  local pair
  for pair in "${outputs[@]}"; do
    printf -- '--%s\n%s\n' "${pair%%:*}" "$prefix-$1.${pair#*:}"
  done
}
mapfile -t ref < <(leg_outputs ref)
mapfile -t killed < <(leg_outputs killed)
mapfile -t resumed < <(leg_outputs resumed)

"$bin" "$@" "${ref[@]}"

mkdir -p "$prefix-ckpts"
"$bin" "$@" --checkpoint-every "$every" --checkpoint-dir "$prefix-ckpts" "${killed[@]}" &
pid=$!
sleep "$kill_after"
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
ls -l "$prefix-ckpts"
latest=$(ls "$prefix-ckpts"/ckpt-*.ckpt 2>/dev/null | sort | tail -1 || true)
if [ -z "$latest" ]; then
  echo "no checkpoint survived the kill" >&2
  exit 1
fi
echo "resuming from $latest"
"$bin" "$@" --resume "$latest" "${resumed[@]}"

for pair in "${outputs[@]}"; do
  ext=${pair#*:}
  want=$prefix-ref.$ext got=$prefix-resumed.$ext
  if [[ $ext == *jsonl ]]; then
    tail -c "$(stat -c%s "$got")" "$want" | cmp - "$got"
  else
    cmp "$want" "$got"
  fi
  echo "$got matches $want"
done
