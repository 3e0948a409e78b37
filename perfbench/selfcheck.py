#!/usr/bin/env python3
"""Quick self-check of the benchmark's own correctness checks.

    python3 perfbench/selfcheck.py

Runs one `rcc gen`, one train round and one detect call per scene size,
shows that the checks accept these outputs, then gives each check a
deliberately wrong output (a flipped PPM byte, a box moved by 3 px, a
gradient scaled by 1.01, a changed logit, an HSV accuracy off by one
patch) and shows that it rejects it. Exits 1 if any check failed on a
right output or let a wrong one pass. Takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import shutil
import sys

import run as bench  # sets the BLAS thread count before numpy loads


def main() -> int:
    bench.load_program()
    work = bench.BENCH_DIR / ".work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = bench.Run(0, work, bench.Clock())
    try:
        bench.set_up(run)
        run.gen()
        bench.load_small(run)
        run.train()
        run.detect("small")
        run.detect("large")
        verdicts = bench.self_check(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for error in run.errors:
        print(f"check failed on the program's output: {error}")
    for wrong, rejected in verdicts.items():
        print(f"{wrong}: {'rejected' if rejected else 'ACCEPTED' if rejected is False else 'not made'}")
    ok = run.failed == 0 and not run.errors and all(verdicts.values())
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
