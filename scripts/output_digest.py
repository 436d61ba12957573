#!/usr/bin/env python3
"""Print one SHA-256 over what the CLI prints for the benchmark's traffic.

Every op of seeds 1-3 of the tp2-sweep, dsm-rules and dst-atoms workloads
(generated by ``perfbench/workloads.py``, which this script only reads)
runs in this process through ``hyperbelief.cli.main``, in order, by the
runner of ``ab_inprocess.py``: its ``ops_of`` writes each op's file and its
``run`` captures the op's output.  Each op's ``repr((exit code, stdout,
stderr))`` feeds the digest.  The script prints the op count and the hex
digest, so a change that moves any byte of any op shows.  On stderr it
prints one ``workload count sha256`` line per workload, over that
workload's ops alone, so a moved digest names the workload whose bytes
moved.  JSON error texts differ between Python versions, so a pinned digest
holds for one version only.

    PYTHONPATH=src python scripts/output_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from ab_inprocess import ops_of, run

from hyperbelief import cli

TRAFFIC = ("tp2-sweep", "dsm-rules", "dst-atoms")
SEEDS = [1, 2, 3]


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in TRAFFIC:
            part = hashlib.sha256()
            argvs = ops_of(workload, SEEDS, None, Path(tmp))
            for argv in argvs:
                record = repr(run(cli.main, argv)[0]).encode("utf-8")
                digest.update(record)
                part.update(record)
            print(workload, len(argvs), part.hexdigest(), file=sys.stderr)
            count += len(argvs)
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
