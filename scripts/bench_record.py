"""Record one BENCH file from the repo's own bench harness.

Byte-compiles ``src`` and ``perfbench`` (``python -m compileall``), then
runs ``perfbench/run.py`` on the ``crowd`` and ``chatter`` workloads at seed
7 for 55 s each, untraced (``--trace 0``, the end-to-end metrics) and traced
(``--trace 1``, the per-layer metrics), then ``scripts/bench_kernels.py``,
all from the checkout this script lives in. Writes ``BENCH_<LABEL>.json`` at
the checkout's root: each perfbench run's two output lines (the detail line
and the result line), the kernel table, the git SHA, whether tracked files
differ from it and, if they do, the sha256 of that difference (see
:func:`git_diff_sha256`), and the machine (``nproc`` and the Python and
NumPy versions).

usage: python scripts/bench_record.py LABEL
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("crowd", "chatter")
SEED, SECONDS = 7, 55
NOTES = (
    "perfbench traces four functions that no longer exist "
    "(strategy.symbol_sequence, strategy.symbol_distribution, "
    "topic.build_documents, topic.stem_and_filter): a traced run lists them "
    "under 'absent', and strategy.symbol_*, topic.build_documents.s and "
    "topic.stem_and_filter.* read 0. "
    "src and perfbench were byte-compiled (python -m compileall -q src perfbench) "
    "before the first perfbench run: perfbench's children inherit "
    "PYTHONDONTWRITEBYTECODE, so a tree whose .py files are newer than its "
    ".pyc files compiles the package in every child, which adds about 2 MB "
    "to peak_rss_mb."
)


def run(argv: list[str]) -> list[str]:
    """The command's standard output lines; its standard error passes through."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    )
    return proc.stdout.splitlines()


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True
    ).stdout


def git_diff_sha256() -> str | None:
    """The sha256 of the work tree's difference from HEAD, so that a BENCH
    file names the code it timed: ``git diff --binary HEAD``, then the path
    and bytes of each untracked file that git does not ignore, in path order
    (BENCH files, which this script writes, left out). None when no tracked
    file differs from HEAD."""
    diff = git("diff", "--binary", "HEAD")
    if not diff:
        return None
    digest = hashlib.sha256(diff)
    for path in git("ls-files", "--others", "--exclude-standard", "-z").split(b"\0"):
        if path and not (path.startswith(b"BENCH_") and path.endswith(b".json")):
            digest.update(path + b"\0" + (ROOT / path.decode()).read_bytes())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    label = argv[0]
    run(["-m", "compileall", "-q", "src", "perfbench"])
    perfbench = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines = run([
                "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", str(SECONDS), "--trace", str(trace),
            ])
            detail, result = (json.loads(line) for line in lines[-2:])
            perfbench[f"{workload}/trace{trace}"] = {"detail": detail, "result": result}
    kernels = json.loads("\n".join(run(["scripts/bench_kernels.py"])))
    # git_dirty: the tracked files differ from that commit, so the run
    # measured the work tree that git_diff_sha256 names
    diff_sha = git_diff_sha256()
    bench = {
        "label": label,
        "git_sha": git("rev-parse", "HEAD").decode().strip(),
        "git_dirty": diff_sha is not None,
        "git_diff_sha256": diff_sha,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "perfbench": {"seed": SEED, "seconds": SECONDS, "runs": perfbench},
        "kernels": kernels["kernels"],
        "notes": NOTES,
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
