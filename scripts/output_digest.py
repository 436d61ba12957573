#!/usr/bin/env python3
"""Print one SHA-256 over what the CLI prints for the benchmark's traffic.

Every op of seeds 1-3 of the tp2-sweep, dsm-rules and dst-atoms workloads
(generated by ``perfbench/workloads.py``, which this script only reads)
runs in this process through ``hyperbelief.cli.main``, in order.  Each
op's ``repr((exit code, stdout, stderr))`` feeds the digest.  The script
prints the op count and the hex digest, so a change that moves any byte
of any op shows.  On stderr it prints one ``workload count sha256`` line per
workload, over that workload's ops alone, so a moved digest names the
workload whose bytes moved.  JSON error texts differ between Python
versions, so a pinned digest holds for one version only.

    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS

from hyperbelief import cli

TRAFFIC = ("tp2-sweep", "dsm-rules", "dst-atoms")
SEEDS = (1, 2, 3)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in TRAFFIC:
            part, part_count = hashlib.sha256(), 0
            for seed in SEEDS:
                ops = [op for r in WORKLOADS[workload](random.Random(seed)) for op in r]
                for i, op in enumerate(ops):
                    argv = list(op["argv"])
                    if op["file"] is not None:
                        path = Path(tmp) / f"{i}.json"
                        path.write_text(op["file"], encoding="utf-8")
                        argv[1] = str(path)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    record = repr((code, out.getvalue(), err.getvalue())).encode("utf-8")
                    digest.update(record)
                    part.update(record)
                    part_count += 1
            print(workload, part_count, part.hexdigest(), file=sys.stderr)
            count += part_count
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
