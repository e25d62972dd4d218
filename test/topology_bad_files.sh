#!/usr/bin/env bash
# Runs every `gridsched` subcommand that takes --topology on a file that
# does not exist and on a directory, and requires a typed load error:
# exit status 1 and "cannot load" on stderr, never an uncaught exception
# (exit 125) or a hang.
#   bash topology_bad_files.sh path/to/gridsched.exe
set -u
exe=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
for path in "$dir/missing.topo" "$dir"; do
  for sub in schedule compare cluster optimal measure simulate profile serve; do
    err=$(timeout 20 "$exe" "$sub" --topology "$path" 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "cannot load" <<<"$err"; then
      echo "$sub --topology $path: exit $status, expected a load error: $err" >&2
      failures=$((failures + 1))
    fi
  done
done
if [ "$failures" -ne 0 ]; then
  echo "$failures unreadable topology files were not reported as load errors" >&2
  exit 1
fi
