#!/usr/bin/env bash
# Byte-identity oracle for refactors: runs scripts/run_demo.sh from the tree
# at git REF (default HEAD) and then from the working tree, into the same
# OUT_DIR, and diffs the sha256 lines both print. Exits 1 on any difference.
#
# REF is extracted with `git archive` into a temporary directory, so the
# repository's .git and working tree are left untouched.
#
# usage: scripts/demo_oracle.sh [REF]
set -euo pipefail

REF="${1:-HEAD}"
REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/demo"

mkdir "$TMP/ref"
git -C "$REPO" archive "$REF" | tar -x -C "$TMP/ref"

digests() {  # $1: a checkout; prints its demo's sha256 lines
  rm -rf "$OUT"
  # an older run_demo.sh imports tweetdyn from PYTHONPATH
  PYTHONPATH="$1/src" bash "$1/scripts/run_demo.sh" "$OUT" >"$TMP/log" 2>&1 \
    || { cat "$TMP/log" >&2; echo "run_demo.sh failed in $1" >&2; exit 1; }
  grep -E '^[0-9a-f]{64} ' "$TMP/log"
}

digests "$TMP/ref" >"$TMP/ref.sha256"
digests "$REPO" >"$TMP/work.sha256"
if diff "$TMP/ref.sha256" "$TMP/work.sha256"; then
  echo "demo_oracle: $(wc -l <"$TMP/work.sha256") sha256 lines identical to $REF"
else
  echo "demo_oracle: outputs differ from $REF" >&2
  exit 1
fi
