#!/usr/bin/env python3
"""Time two package trees side by side in one process, op by op.

Each tree's ``src/hyperbelief`` is loaded under a module name of its own
(``ab_a`` and ``ab_b``), so one interpreter holds both and shares one heap,
one host state and one set of warm caches between them.  The ops of a
benchmark workload (generated by ``perfbench/workloads.py``, which this
script only reads) run through each tree's ``cli.main``, the two trees
alternated op by op; which tree goes first alternates from op to op and from
pass to pass.  A pass runs every op once on each tree, and its ratio is b's
total op time over a's.

The script prints the median ratio over the passes, its quartiles and the
number of passes in which b was faster.  A first, untimed pass checks that
both trees give every op the same exit code, stdout and stderr; a tree that
prints other bytes is reported and the run exits 1.  Its last line is the
same summary as JSON.  Naming one tree twice is an A/A control, whose median
reads 1 to within the host's noise.

    python scripts/ab_inprocess.py PARENT_CHECKOUT . --workload dst-atoms --seeds 1 2 --passes 20
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS


def load(root: Path, name: str):
    """The ``cli`` module of the package tree under ``root``, imported as ``name``."""
    package = root.resolve() / "src" / "hyperbelief"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def ops_of(workload: str, seeds: list[int], limit: int | None, tmp: Path) -> list[list[str]]:
    """The argv of each op of ``workload`` at ``seeds``, in order, its file written under ``tmp``."""
    ops = (op for seed in seeds for r in WORKLOADS[workload](random.Random(seed)) for op in r)
    argvs = []
    for op in itertools.islice(ops, limit):
        argv = list(op["argv"])
        if op["file"] is not None:
            path = tmp / f"{len(argvs)}.json"
            path.write_text(op["file"], encoding="utf-8")
            argv[1] = str(path)
        argvs.append(argv)
    return argvs


def run(main, argv: list[str]) -> tuple[tuple[int, str, str], float]:
    """((exit code, stdout, stderr), seconds) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return (code, out.getvalue(), err.getvalue()), seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout of the reference tree")
    parser.add_argument("b", type=Path, help="checkout of the tree measured against it")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="dst-atoms")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--ops", type=int, default=None, help="the first OPS ops of the seeds (default all)")
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args()

    mains = (load(args.a, "ab_a").main, load(args.b, "ab_b").main)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = ops_of(args.workload, args.seeds, args.ops, Path(tmp))
        differ = [i for i, argv in enumerate(argvs) if run(mains[0], argv)[0] != run(mains[1], argv)[0]]
        ratios = []
        for p in range(args.passes):
            totals = [0.0, 0.0]
            for i, argv in enumerate(argvs):
                first = (i + p) % 2
                for side in (first, 1 - first):
                    totals[side] += run(mains[side], argv)[1]
            ratios.append(totals[1] / totals[0])
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"{args.workload}, seeds {' '.join(map(str, args.seeds))}: {len(argvs)} ops, {args.passes} passes")
    print(f"b/a op time: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}; b faster in {wins}/{args.passes} passes")
    if differ:
        print(f"the trees print different bytes on {len(differ)} op(s), first op {differ[0]}")
    summary = {"median": median, "q1": q1, "q3": q3, "wins": wins, "passes": args.passes}
    print(json.dumps({**summary, "ops": len(argvs), "differ": len(differ)}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
