#!/bin/sh
# Static-analysis gate: builds daclint from this module and runs it
# once over every package (`daclint -json .`), then runs staticcheck
# and govulncheck when they are installed (CI installs the pinned
# versions below; local runs skip what is missing so the script works
# offline).
#
# The daclint report is left in daclint.json (CI archives it). Its
# findings and per-analyzer counts are always printed, and the counts
# are appended to $GITHUB_STEP_SUMMARY when that file is set (the CI
# lint job). Exit status: 2 when daclint has findings, 1 on an
# operational failure or a run over the 30 s budget.
set -eu

cd "$(dirname "$0")/.."

# Pinned external tool versions. CI greps these out of this file so
# the workflow and the script can never disagree about what to install.
STATICCHECK_VERSION="v0.5.1"
GOVULNCHECK_VERSION="v1.1.4"

echo "==> build daclint"
mkdir -p bin
go build -o bin/daclint ./cmd/daclint

echo "==> daclint -json ."
status=0
./bin/daclint -json . >daclint.json || status=$?
if [ "$status" -eq 1 ]; then
    echo "daclint failed operationally" >&2
    exit 1
fi

# The report is indented JSON: findings are objects at four spaces,
# their fields at six; the analyzers map's entries sit at four.
awk '
    function str(s) {
        sub(/^[^:]*: "/, "", s); sub(/",?$/, "", s)
        gsub(/\\"/, "\"", s); gsub(/\\u003c/, "<", s); gsub(/\\u003e/, ">", s); gsub(/\\u0026/, "\\&", s)
        return s
    }
    function num(s) { sub(/^[^:]*: /, "", s); sub(/,$/, "", s); return s }
    /^      "file": /     { file = str($0) }
    /^      "line": /     { line = num($0) }
    /^      "col": /      { col = num($0) }
    /^      "analyzer": / { analyzer = str($0) }
    /^      "message": /  { message = str($0) }
    /^    }/              { printf "%s:%s:%s: %s: %s\n", file, line, col, analyzer, message }
' daclint.json
counts=$(awk '
    /^  "analyzers": \{/ { on = 1; next }
    on && /^  }/         { on = 0 }
    on                   { gsub(/[",:]/, ""); print $1, $2 }
' daclint.json)

json_field() {
    sed -n "s/^.*\"$1\": \([0-9.]*\).*$/\1/p" daclint.json | head -n 1
}
elapsed_ms=$(json_field elapsed_ms)
cfg_builds=$(json_field builds)
cfg_build_ms=$(json_field build_ms)
echo "daclint full-repo run: ${elapsed_ms} ms (${cfg_builds} CFGs built in ${cfg_build_ms} ms)"

# Runtime guard: the flow-sensitive suite must stay interactive. A
# run past 30s means a CFG or fixpoint regression, not a bigger repo.
if [ -n "$elapsed_ms" ] && awk "BEGIN{exit !($elapsed_ms >= 30000)}"; then
    echo "daclint full-repo run took ${elapsed_ms} ms; the budget is 30000 ms" >&2
    exit 1
fi

# Findings per analyzer, one row per key of the report's analyzers
# map: every suite analyzer plus "ignore" (malformed //lint:ignore
# directives reported by the framework itself).
summary=$(
    echo "| analyzer | findings |"
    echo "| --- | ---: |"
    echo "$counts" | awk '{ printf "| %s | %s |\n", $1, $2 }'
)
echo "$summary" | sed 's/|/ /g'
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### daclint"
        echo ""
        echo "$summary"
        echo ""
        echo "Full-repo run: ${elapsed_ms} ms; ${cfg_builds} CFGs built in ${cfg_build_ms} ms (budget 30000 ms)."
        echo ""
        if [ "$status" -eq 0 ]; then
            echo "No unsuppressed findings."
        else
            echo "**daclint failed (exit $status).**"
        fi
    } >>"$GITHUB_STEP_SUMMARY"
fi
if [ "$status" -ne 0 ]; then
    echo "daclint found problems (exit $status)" >&2
    exit "$status"
fi

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck (pinned $STATICCHECK_VERSION in CI)"
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping (CI pins $STATICCHECK_VERSION)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "==> govulncheck (pinned $GOVULNCHECK_VERSION in CI)"
    govulncheck ./...
else
    echo "==> govulncheck not installed; skipping (CI pins $GOVULNCHECK_VERSION)"
fi

echo "==> lint passed"
