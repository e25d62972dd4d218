#!/usr/bin/env bash
# Runs every `gridsched` subcommand that takes --topology on a file that
# does not exist, on a directory, and on GRID5000 dumps carrying one bad
# number each (NaN, negative and infinite link latency, a size-0 cluster),
# and requires a typed load error: exit status 1 and "cannot load" on
# stderr, never an uncaught exception (exit 125), a hang, or a run on
# non-finite parameters.  A dump whose every inter-cluster gap is 1e308
# loads (each number is finite) but overflows once a coordinator sends
# twice: every subcommand that plans or simulates on it must refuse it,
# exit 1 naming the non-finite value, rather than print inf or nan.
#   bash topology_bad_files.sh path/to/gridsched.exe
set -u
exe=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
"$exe" topology grid5000 >"$dir/grid5000.topo" || exit 1
bad() {
  sed -E "$2" "$dir/grid5000.topo" >"$dir/$1.topo"
  if cmp -s "$dir/grid5000.topo" "$dir/$1.topo"; then
    echo "$1: the edit did not apply" >&2
    exit 1
  fi
}
bad nan-latency 's/^(link 0 1 L )[^ ]+/\1nan/'
bad negative-latency 's/^(link 0 1 L )[^ ]+/\1-5/'
bad inf-latency 's/^(link 0 1 L )[^ ]+/\1inf/'
bad zero-size-cluster 's/^(cluster 0 [^ ]+ )[0-9]+/\10/'
bad huge-gaps 's/^(link [0-9]+ [0-9]+ L [^ ]+ )G .*/\1G 0:1e308,1000000:1e308/'
for path in "$dir/missing.topo" "$dir" "$dir/nan-latency.topo" \
  "$dir/negative-latency.topo" "$dir/inf-latency.topo" \
  "$dir/zero-size-cluster.topo"; do
  for sub in schedule compare cluster optimal measure simulate profile serve; do
    err=$(timeout 20 "$exe" "$sub" --topology "$path" 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "cannot load" <<<"$err"; then
      echo "$sub --topology $path: exit $status, expected a load error: $err" >&2
      failures=$((failures + 1))
    fi
  done
done
for sub in schedule compare optimal simulate profile serve; do
  err=$(timeout 20 "$exe" "$sub" --topology "$dir/huge-gaps.topo" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q -- "non-finite" <<<"$err"; then
    echo "$sub --topology huge-gaps: exit $status, expected a non-finite refusal: $err" >&2
    failures=$((failures + 1))
  fi
done
if [ "$failures" -ne 0 ]; then
  echo "$failures unreadable or invalid topology files were not reported as load errors" >&2
  exit 1
fi
