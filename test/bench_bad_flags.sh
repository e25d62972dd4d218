#!/usr/bin/env bash
# Runs the bench executables on bad numeric flag values and requires a
# usage error naming the flag (exit 2, no output file written), never an
# uncaught exception or a silently accepted value.  Each run is bounded by
# `timeout` and starts in a scratch directory.
#   bash bench_bad_flags.sh path/to/main.exe path/to/scaling.exe ...
set -u
declare -A exe
for path in "$@"; do
  exe[$(basename "$path" .exe)]=$(cd "$(dirname "$path")" && pwd)/$(basename "$path")
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0
# expect BENCH FLAG ARG...: exit 2 with "option FLAG" on stderr.
expect() {
  local bench=$1 flag=$2
  shift 2
  err=$(cd "$work" && timeout 20 "${exe[$bench]}" "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "option $flag" <<<"$err" \
    || grep -q "Fatal error" <<<"$err"; then
    echo "$bench $*: exit $status, expected 2 and an error naming $flag: $err" >&2
    failures=$((failures + 1))
  fi
}
expect main --iterations -i abc
expect main --iterations --iterations 0
expect scaling --max-n --max-n x
expect scaling --max-n --max-n 0
expect scaling --max-naive-n --max-naive-n -1
expect scaling --seed --seed 1.5
expect scaling --jobs --jobs 0
expect faults --reps --reps 0
expect faults --max-n --max-n nan
expect faults --seed --seed ""
expect faults --jobs -j -2
expect dynamics --reps --reps x
expect dynamics --max-n --max-n 0
expect dynamics --seed --seed 99999999999999999999999
expect dynamics --jobs --jobs 0
expect optgap --reps --reps -1
expect optgap --max-n --max-n 1e3
expect optgap --seed --seed x
expect optgap --jobs --jobs x
expect service --duration --duration nan
expect service --duration --duration 0
expect service --duration --duration inf
expect service --seed --seed x
expect service --jobs --jobs 0
expect chaos --duration --duration -5
expect chaos --duration --duration abc
expect chaos --seed --seed 0x
expect chaos --jobs --jobs 0
if [ -n "$(ls -A "$work")" ]; then
  echo "a rejected run wrote output: $(ls "$work")" >&2
  failures=$((failures + 1))
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures bad flag values were not rejected" >&2
  exit 1
fi
