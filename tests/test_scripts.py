"""Smoke tests: the example scripts and the benchmark tracer run against the package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from hyperbelief import Frame, canonicalize
from hyperbelief.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_epsilon_sweep_prints_its_table():
    lines = run_script("epsilon_sweep.py")
    assert lines[0].split() == [
        "e1", "e2", "|", "bayes", "fly", "bayes", "not", "|",
        "dst", "Bel(f)", "dst", "Pl(f)", "conflict", "|",
        "dsm", "Bel(f)", "dsm", "Pl(f)", "conflict",
    ]
    assert set(lines[1]) == {"-"}
    # six grid points and the two asymmetric inversions
    assert len(lines) == 2 + 8


def test_dedekind_growth_counts():
    lines = run_script("dedekind_growth.py", "--max-n", "4")
    assert lines[0].split() == ["n", "elements", "seconds", "elems/s"]
    assert [tuple(map(int, line.split()[:2])) for line in lines[1:]] == [
        (1, 2),
        (2, 5),
        (3, 19),
        (4, 167),
    ]


def test_benchmark_tracer_wraps_the_package(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    argv = ["fuse", str(ROOT / "scenarios" / "tp2.json"), "--format", "json"]
    untraced = (main(argv), capsys.readouterr())
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        traced = (main(argv), capsys.readouterr())
        # the tracer reads .terms before __post_init__ absorbs the masks
        absorbed = canonicalize(Frame(("a", "b")), [{0, 1}, {0}])
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert absorbed.terms == (frozenset({0}),)
    assert tracer.metrics()["lattice.Proposition.calls"] > 0
