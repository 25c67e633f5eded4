#!/usr/bin/env bash
# Fails unless every named test or fuzz target exists in the package, so a
# step that filters `go test -run` or `-fuzz` by name cannot pass by
# matching nothing after a rename or removal.
#
# Usage: require-tests.sh <package> <name>...
set -euo pipefail
pkg=$1
shift
listed=$(go test -list "^($(IFS='|'; echo "$*"))\$" "$pkg")
missing=()
for name in "$@"; do
  grep -qxF "$name" <<<"$listed" || missing+=("$name")
done
if ((${#missing[@]})); then
  echo "require-tests: no test named ${missing[*]} in $pkg" >&2
  exit 1
fi
