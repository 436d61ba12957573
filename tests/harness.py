"""Fixtures the test modules share: the penguin triangle, the seed-7 scenario
generator, the benchmark's reference module, and the two ways to run the
command line, in this process (``run_main``) and in a fresh interpreter
(``run_process``)."""

import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hyperbelief import AtomFrame, DstAxes, Frame, Model, Scenario, WeightedRule
from hyperbelief.cli import main

ROOT = Path(__file__).resolve().parent.parent
TP2_PATH = ROOT / "scenarios" / "tp2.json"
TP2_TEXT = TP2_PATH.read_text(encoding="utf-8")

# perfbench/reference.py, which imports nothing from the package: its region
# semantics serve the oracle's naive rules, and its Checker the differentials
_spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# The penguin triangle of scenarios/tp2.json: p→nf, b→f and p→b, with f and
# nf exclusive, p∩b observed, and f and nf queried.
TPFRAME = Frame(("p", "b", "f", "nf"))
P, B, F, NF = (TPFRAME.singleton(name) for name in TPFRAME.names)
TPMODEL = Model.from_constraints(TPFRAME, [(2, 3)])
TPAXES = DstAxes(
    AtomFrame((("f", "nf"), ("b", "b_"), ("p", "p_"))),
    {"f": (0, 0), "nf": (0, 1), "b": (1, 0), "p": (2, 0)},
)


def triangle_rules(e1, e2, e3):
    return (
        WeightedRule(P, NF, 1 - e1),
        WeightedRule(B, F, 1 - e2),
        WeightedRule(P, B, 1 - e3),
    )


def tp2_scenario(e1, e2, e3, engines=("bayes", "dst", "dsm"), observations=(P & B,)):
    return Scenario(
        model=TPMODEL,
        rules=triangle_rules(e1, e2, e3),
        observations=observations,
        queries=(F, NF),
        engines=engines,
        dst_axes=TPAXES if "dst" in engines else None,
    )


def tp2_with(*edits) -> str:
    """The bundled scenario as JSON text with nodes replaced: ``edits``
    alternate a path of keys and indices and the value for the node there."""
    blob = json.loads(TP2_TEXT)
    for path, value in zip(edits[::2], edits[1::2]):
        target = blob
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return json.dumps(blob, ensure_ascii=False)


NAMES = "abcdef"
# a and d exclude each other, and so do b, c and e: the axes imply both constraints
DST_AXES = {
    "axes": [["a", "d"], ["b", "c", "e"], ["f", "f_"]],
    "map": {"a": [0, 0], "d": [0, 1], "b": [1, 0], "c": [1, 1], "e": [1, 2], "f": [2, 0]},
}


def generated(seed: int = 7, count: int = 3000, engine: str = "dsm") -> list[dict]:
    """Random scenarios on six singletons with constraints a∩d and b∩c∩e.

    Each has 2-10 rules of weight U(0.01, 0.99), 0-2 observations and 6
    queries; every proposition is a single, a two-way ∩ or a two-way ∪.  With
    ``engine="dst"`` the same draws run on the engine dst and declare DST_AXES.
    """
    rng = random.Random(seed)

    def proposition() -> list[list[str]]:
        shape = rng.choice(("single", "inter", "union"))
        if shape == "single":
            return [[rng.choice(NAMES)]]
        x, y = rng.sample(NAMES, 2)
        return [[x, y]] if shape == "inter" else [[x], [y]]

    scenarios = []
    for _ in range(count):
        rules = [
            {"if": proposition(), "then": proposition(), "weight": rng.uniform(0.01, 0.99)}
            for _ in range(rng.randint(2, 10))
        ]
        observations = [proposition() for _ in range(rng.randint(0, 2))]
        queries = [proposition() for _ in range(6)]
        scenarios.append(
            {
                "frame": list(NAMES),
                "constraints": [["a", "d"], ["b", "c", "e"]],
                "rules": rules,
                "observations": observations,
                "queries": queries,
                "engines": [engine],
            }
        )
        if engine == "dst":
            scenarios[-1]["dst_axes"] = DST_AXES
    return scenarios


def run_main(argv: list[str], stdin: str | bytes = b"") -> tuple[int, str, str]:
    """``main(argv)`` with ``stdin`` as standard input; returns (code, stdout, stderr).

    Standard input is a stream of bytes, as a pipe is; text is given to it
    as UTF-8.  Standard output encodes as strict UTF-8, as a terminal or pipe
    does, so text that cannot be encoded fails here as it would there.
    """
    data = stdin.encode("utf-8") if type(stdin) is str else stdin
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    err = io.StringIO()
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def run_process(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from this checkout.

    ``env`` adds to the environment, whose PYTHONIOENCODING is utf-8 (the
    reports print ∅, ∩ and ∪) and which has no PYTHONUNBUFFERED: users do
    not set it, and with it a fault of block-buffered stdout does not show.
    Both output streams are captured as bytes unless ``kwargs`` say otherwise.
    """
    environ = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), environ.get("PYTHONPATH")) if p)
    environ["PYTHONIOENCODING"] = "utf-8"
    environ.update(env or {})
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=environ, timeout=120, **kwargs)
