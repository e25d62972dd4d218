#!/usr/bin/env bash
# Runs `gridsched` subcommands other than `serve` on bad numeric flag
# values and requires an error naming the flag, never an uncaught
# exception (exit 125) or a silently accepted value.  Values that are bad
# on any topology are usage errors (exit 124); ranks and clusters beyond
# the loaded topology, and a link from a rank to itself, are reported
# after load (exit 1).  A `--trace` file that cannot be created is an
# error naming it (exit 1).  Each run is bounded by `timeout`.
#   bash cli_bad_flags.sh path/to/gridsched.exe
set -u
exe=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
# expect STATUS TEXT SUBCOMMAND ARG...: exit STATUS with TEXT on stderr.
expect() {
  local want=$1 text=$2
  shift 2
  err=$(timeout 20 "$exe" "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne "$want" ] || ! grep -q -- "$text" <<<"$err"; then
    echo "$*: exit $status, expected $want and an error naming $text: $err" >&2
    failures=$((failures + 1))
  fi
}
for sub in schedule compare optimal simulate profile; do
  expect 124 "option '--message'" "$sub" --message=-1
done
for sub in schedule compare optimal profile; do
  expect 124 "option '--root'" "$sub" --root=-1
  expect 1 "--root 99" "$sub" --root=99
done
expect 124 "option '--count'" check --count=-5
expect 124 "option '--retries'" simulate --retries=-1
expect 124 "option '--reps'" simulate --reps=-1
expect 124 "option '--jitter'" simulate --jitter=-1
expect 124 "option '--jitter'" simulate --jitter=inf
expect 124 "option '--iterations'" figure 1 --iterations=-1
expect 124 "option '--iterations'" hitrate --iterations=-3
expect 124 "option '-n'" hitrate -n 0
expect 124 "option '-n'" topology random -n 0
expect 124 "option '--rho'" cluster --rho=nan
expect 124 "option '--rho'" cluster --rho=-1
expect 124 "option '--jitter'" cluster --jitter=-1
expect 124 "option '--jitter'" measure --jitter=nan
expect 124 "option '--src'" measure --src=-1
expect 1 "--dst 9999" measure --dst=9999
expect 1 "--src and --dst" measure --src=3 --dst=3
for sub in simulate profile serve; do
  expect 1 "cannot write trace $dir/missing/t.jsonl" "$sub" --trace "$dir/missing/t.jsonl"
done
if [ "$failures" -ne 0 ]; then
  echo "$failures bad flag values were not rejected" >&2
  exit 1
fi
