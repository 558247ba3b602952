#!/bin/sh
# Static-analysis gate: the daclint suite (internal/lint) over every
# package of this module, run by its self-check TestRepoPassesDaclint,
# which prints each finding as file:line:col: [analyzer] message and
# fails on any. The 30 s timeout is the suite's budget: a run past it
# means an analyzer regression, not a bigger repo. Then staticcheck and
# govulncheck run when they are installed (CI installs the pinned
# versions below; local runs skip what is missing so the script works
# offline).
set -eu

cd "$(dirname "$0")/.."

# Pinned external tool versions. CI greps these out of this file so
# the workflow and the script can never disagree about what to install.
STATICCHECK_VERSION="v0.5.1"
GOVULNCHECK_VERSION="v1.1.4"

echo "==> daclint suite (TestRepoPassesDaclint, 30 s budget)"
go test -count=1 -run '^TestRepoPassesDaclint$' -timeout 30s ./internal/lint

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
