#!/usr/bin/env bash
# End-to-end demo on synthetic data with known ground truth.
#
# Generates a four-group campaign corpus (planted rate spectra, vocabularies
# and strategy mixes) with `tweetdyn synth` into OUT_DIR/synth, runs the whole
# analysis pipeline on it with `tweetdyn run` into OUT_DIR/corpus, then fits
# the change-point model on a separate planted-rate aggregate series
# (`synth --kind changepoint`, `changepoint`, into OUT_DIR/changepoint).
# Prints a short summary of how well each stage recovered the planted
# structure, and the sha256 of every file it wrote, sorted by path under
# OUT_DIR. Two runs from two checkouts with the same OUT_DIR wrote the same
# bytes exactly when their outputs diff clean (the input path is embedded in
# a few artifacts).
#
# usage: scripts/run_demo.sh [OUT_DIR]   (default: runs/demo)
set -euo pipefail

OUT="${1:-runs/demo}"
SYNTH="$OUT/synth"
CORPUS="$OUT/corpus"
AGG="$OUT/changepoint"
mkdir -p "$SYNTH" "$CORPUS" "$AGG"

# The synthetic campaign flips its strategy mixes halfway through the corpus
# window (2016-07-09), so the before/after comparison must bracket that day
# instead of using the default study calendars.
CONFIG="$OUT/demo_config.json"
cat > "$CONFIG" <<'JSON'
{
  "reference_window": ["2016-03-09", "2016-07-09"],
  "comparison_window": ["2016-07-09", "2016-11-08"]
}
JSON

# Always the package of this checkout, never a tweetdyn installed elsewhere:
# the byte-identity oracle (scripts/demo_oracle.sh) compares two checkouts.
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"

step() {
  echo "==> tweetdyn $*"
  PYTHONPATH="$SRC" python3 -m tweetdyn.cli "$@"
}

step synth --config "$CONFIG" --out "$SYNTH"
step run   --config "$CONFIG" --out "$CORPUS" --input "$SYNTH/records.jsonl"

step synth --kind changepoint --config "$CONFIG" --out "$AGG"
step changepoint              --config "$CONFIG" --out "$AGG"

python3 - "$SYNTH" "$CORPUS" "$AGG" <<'PY'
import json
import sys

synth, corpus, agg = sys.argv[1], sys.argv[2], sys.argv[3]
head = json.load(open(f"{corpus}/report.json"))["headline"]
cp = json.load(open(f"{agg}/changepoint.json"))
truth = json.load(open(f"{synth}/labels.json"))
spectral = json.load(open(f"{corpus}/clusters_spectral.json"))

print()
print("demo summary")
print(f"  users: {len(truth)} in {len(set(truth.values()))} planted groups")
sizes = sorted(len(c["members"]) for c in spectral["clusters"].values())
print(f"  spectral clusters: {spectral['k']} (sizes {sizes})")
print(
    f"  topic communities: {head['n_topic_communities']}"
    f" at modularity {head['topic_modularity']:.3f}"
)
print(f"  strategy shift chi-square: {head['strategy_chi_square']:.1f}")
print(
    f"  aggregate rate before/after the planted break:"
    f" {cp['model1']['slope']:.2f} / {cp['model2']['slope']:.2f} tweets/day"
    f" (significant: {cp['significant']})"
)
print(f"  artifacts: {synth}/, {corpus}/ and {agg}/")
PY

python3 - "$OUT" <<'PY'
import hashlib
import sys
from pathlib import Path

out = Path(sys.argv[1])
print()
print(f"sha256 of every file under {out}/")
for path in sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()):
    print(hashlib.sha256((out / path).read_bytes()).hexdigest(), path)
PY
