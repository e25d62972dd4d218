#!/usr/bin/env bash
# Runs `gridsched serve` on each bad numeric flag value and requires a
# usage error naming the flag: exit status 124 and the flag in stderr.
# Each run is bounded by `timeout`, so a value that makes the server hang
# fails the check (timeout's own 124 comes without the message).
#   bash serve_bad_flags.sh path/to/gridsched.exe
set -u
exe=$1
failures=0
for arg in \
  --rate=nan --rate=inf --rate=0 --rate=-5 \
  --duration=inf --duration=nan --duration=-1 --duration=0 \
  --max-concurrent=0 --max-concurrent=-3 \
  --max-backlog=0 --max-backlog=nan \
  --shed-watermark=nan --shed-watermark=0 \
  --shed-open-frac=nan --shed-open-frac=-0.5 \
  --retry-budget=-1 --retry-backoff=nan --retry-backoff=inf --retry-backoff=-1; do
  flag=${arg%%=*}
  err=$(timeout 20 "$exe" serve "$arg" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 124 ] || ! grep -q -- "option '$flag'" <<<"$err"; then
    echo "serve $arg: exit $status, expected a usage error naming $flag: $err" >&2
    failures=$((failures + 1))
  fi
done
if [ "$failures" -ne 0 ]; then
  echo "$failures bad serve flag values were not rejected" >&2
  exit 1
fi
