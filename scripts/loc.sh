#!/bin/sh
# The line count ROADMAP aim 2 is held to: non-test Go source outside
# cmd/dacperf (the frozen benchmark), testdata excluded, counted from
# the files git tracks (plus untracked ones not ignored, so it reads the
# same before and after `git add`). Prints the repo figure, then one
# line per package directory, largest first.
set -eu

cd "$(dirname "$0")/.."

files=$(git ls-files --cached --others --exclude-standard '*.go' |
    grep -v -e '_test\.go$' -e '^cmd/dacperf/' -e '/testdata/' | sort -u)

# shellcheck disable=SC2086
cat $files | wc -l | awk '{ printf "%6d  non-test Go lines outside cmd/dacperf\n", $1 }'
for f in $files; do
    printf '%s %s\n' "$(wc -l < "$f")" "$(dirname "$f")"
done | awk '{ n[$2] += $1 } END { for (d in n) printf "%6d  %s\n", n[d], d }' | sort -k1,1nr -k2
