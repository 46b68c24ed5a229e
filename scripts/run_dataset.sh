#!/usr/bin/env bash
# Full pipeline over real tweet tables (CSV with the stock column layout,
# or JSON-lines via FORMAT=jsonl).
#
# Uses the default analysis calendars; pass a JSON config to override
# windows, cohort thresholds or model knobs.
#
# usage: scripts/run_dataset.sh OUT_DIR TABLE [TABLE...]
#   FORMAT=csv|jsonl      input format (default csv)
#   CONFIG=path.json      extra config (optional)
#   WINDOW=pre|post|bulk  per-user analysis window (default pre)
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 OUT_DIR TABLE [TABLE...]" >&2
  exit 64
fi

OUT="$1"
shift
mkdir -p "$OUT"

FORMAT="${FORMAT:-csv}"
WINDOW="${WINDOW:-pre}"
CONFIG_ARGS=()
if [ -n "${CONFIG:-}" ]; then
  CONFIG_ARGS=(--config "$CONFIG")
fi
INPUT_ARGS=()
for table in "$@"; do
  INPUT_ARGS+=(--input "$table")
done

if command -v tweetdyn >/dev/null 2>&1; then
  TWEETDYN=(tweetdyn)
else
  TWEETDYN=(python3 -m tweetdyn.cli)
fi

run() {
  echo "==> tweetdyn $*"
  "${TWEETDYN[@]}" "$@"
}

run ingest "${CONFIG_ARGS[@]}" --format "$FORMAT" --out "$OUT" "${INPUT_ARGS[@]}"
run counts "${CONFIG_ARGS[@]}" --window "$WINDOW" --out "$OUT"
run changepoint "${CONFIG_ARGS[@]}" --out "$OUT"
run strategy "${CONFIG_ARGS[@]}" --out "$OUT"
run spectra "${CONFIG_ARGS[@]}" --window "$WINDOW" --out "$OUT"
run cluster-spectral "${CONFIG_ARGS[@]}" --window "$WINDOW" --out "$OUT"
run cluster-topic "${CONFIG_ARGS[@]}" --window "$WINDOW" --out "$OUT"
run compare "${CONFIG_ARGS[@]}" --window "$WINDOW" --out "$OUT"
run report "${CONFIG_ARGS[@]}" --out "$OUT"

echo "report: $OUT/report.json"
