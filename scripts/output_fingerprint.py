#!/usr/bin/env python3
"""Print one sha256 per reproducible output, so two checkouts can be diffed.

Covers ``subweibull verify`` stdout at its default seed and at 20240817, the
output file of each call of the benchmark's ``cli_numerics`` workload, and
the report and tail CSVs of its ``growth`` and ``tail_small_n`` workloads at
20240817 and 19090677, each digested by the workload itself; workloads are
built from ``perfbench/workloads.py`` at their default sizes.  Each line is
``<sha256 or "-" when nothing was written>  exit <code>  <label>``, with
``exit -`` for the CSVs, which come from in-process calls.  Run it in each
checkout and compare the lists:

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
CSV_SEEDS = (20_240_817, 19_090_677)  # the seeds of perfbench/reference_digests.json


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
        for name in ("growth", "tail_small_n"):
            for seed in CSV_SEEDS:
                workload = workloads.build(name, seed, out_dir)
                digests = workload.digest([call.invoke() for call in workload.calls])
                for key, digest in digests.items():
                    print(f"{digest}  exit -  {name} --seed {seed} {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
