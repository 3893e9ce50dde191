#!/usr/bin/env python3
"""Print one sha256 per reproducible CLI output, so two checkouts can be diffed.

Covers ``subweibull verify`` stdout at its default seed and at 20240817, and
the output file of each call of the benchmark's ``cli_numerics`` workload,
built from ``perfbench/workloads.py`` at its default sizes and seed.  Each
line is ``<sha256 or "-" when nothing was written>  exit <code>  <label>``.
Run it in each checkout and compare the lists:

    python3 scripts/output_fingerprint.py > fingerprint.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from subweibull import cli  # noqa: E402
import workloads  # noqa: E402

VERIFY_SEEDS = (None, 20_240_817)  # None: the command's default seed


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    os.unlink(path)
    return digest


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as out_dir:
        path = os.path.join(out_dir, "verify.txt")
        for seed in VERIFY_SEEDS:
            argv = ["verify", "--output", path] + ([] if seed is None else ["--seed", str(seed)])
            rc = cli.main(argv)
            label = "verify" + ("" if seed is None else f" --seed {seed}")
            print(f"{_digest(path)}  exit {rc}  {label}")
        workload = workloads.build("cli_numerics", workloads.DEFAULT_SEED, out_dir)
        for i, call in enumerate(workload.calls):
            rc = call.invoke()
            print(f"{_digest(os.path.join(out_dir, f'call{i}.json'))}  exit {rc}  {call.label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
