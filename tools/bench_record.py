#!/usr/bin/env python3
"""Run perfbench once and keep its record as BENCH_<label>.json.

    python3 tools/bench_record.py LABEL [--checkout DIR] -- RUN_ARGS...

RUN_ARGS go to `perfbench/run.py` of the checkout DIR (by default this
repository), e.g. `--workload gen --seed 1301 --seconds 26 --trace 0`.
The run's output passes through to standard output. The record, written
to the root of this repository, holds the command, the checkout's commit,
the line count of the checkout's `src/rcc/*.py` (`src_rcc_py_lines`), the
run's host line (nproc, CPU, numpy, BLAS build and thread count), its
`workload ...: rounds N, ...` line, so that the two sides of a pair show
how many rounds each timed, and its final JSON line (correct, attempted,
failed and the metrics). A run that exits non-zero, that printed no host or
workload line, whose last line is not a JSON object, or whose outputs were
wrong (`"correct": false`) or whose operations failed (`failed` above 0)
cannot back a claim: it writes no record and exits 1, saying why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit_of(checkout: Path) -> str:
    """The checkout's commit, marked `-dirty` when its tracked files differ."""
    try:
        result = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True,
        )
    except OSError:  # no git on this host
        return "unknown"
    return result.stdout.strip() or "unknown"


def source_lines(checkout: Path) -> int:
    """Lines of the checkout's `src/rcc/*.py`, counted as `wc -l` does."""
    sources = (checkout / "src" / "rcc").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in sources)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s LABEL [--checkout DIR] -- RUN_ARGS...")
    parser.add_argument("label", help="names the record BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench/run.py runs")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    run_args = argv[split + 1 :]
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {checkout}")
    # the interpreter named the way BENCHMARK.json names it
    command = ["python3", "perfbench/run.py", *run_args]

    lines = []
    with subprocess.Popen(command, cwd=checkout, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
    host = [line[len("host "):] for line in lines if line.startswith("host ")]
    workload = [line for line in lines if line.startswith("workload ")]
    try:
        record = {
            "command": command,
            "commit": commit_of(checkout),
            "src_rcc_py_lines": source_lines(checkout),
            "host": json.loads(host[0]),
            "workload": workload[0],
            "run": json.loads(lines[-1]),
        }
    except (IndexError, json.JSONDecodeError):
        record = None
    run = record["run"] if record else None
    if proc.returncode != 0:
        why = f"run exited {proc.returncode}"
    elif not isinstance(run, dict):
        why = "no host or workload line, or a last line that is not a JSON object"
    elif run.get("correct") is not True:
        why = "the run's outputs were not correct"
    elif run.get("failed") != 0:
        why = f"{run.get('failed')} operations failed"
    else:
        out = ROOT / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"bench_record: wrote {out.name}", file=sys.stderr)
        return 0
    print(f"bench_record: {why}; no record written", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
