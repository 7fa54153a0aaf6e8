#!/usr/bin/env bash
# loc — the repository's net Rust line count, as ROADMAP.md tracks it.
#
# Prints the lines of the tracked .rs files outside dynbench/ and
# crates/modelcheck/ (the workspace crates, vendor/, tests/ and
# examples/), then the lines of dynbench/ on their own. Only files git
# tracks are counted, so `git add` new files before comparing commits.
#
# Usage: tools/loc.sh   (or: make loc)

set -euo pipefail

cd "$(dirname "$0")/.."

lines() {
    git ls-files -z -- "$@" | xargs -0 -r cat | wc -l
}

echo "rust lines (workspace, vendor/, tests/, examples/): $(lines '*.rs' ':!dynbench/' ':!crates/modelcheck/')"
echo "rust lines (dynbench/): $(lines 'dynbench/*.rs')"
