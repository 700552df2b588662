#!/usr/bin/env bash
# Product line count, as EXPERIMENTS.md "PR 16" defines it: non-blank lines
# that do not start with `//`, before the first `#[cfg(test)]` of each file
# under crates/*/src. Prints "<count> <file>" per file and the total last, so
# denser formatting, code moved into tests and deleted comments do not show
# up as a reduction.
# Usage: tools/count_lines.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src -name '*.rs' | sort | while read -r f; do
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit}
           !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{n++} END{print n+0}' "$f")
  echo "$n $f"
done | awk '{t+=$1; print} END{print t, "total"}'
