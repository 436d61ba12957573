"""Smoke tests: the example scripts, the side-by-side timer, the README examples
and the benchmark tracer run against the package, and the committed benchmark
runs read correct."""

import hashlib
import importlib.util
import json
import shlex
import shutil

from harness import ROOT, TP2_PATH, run_main, run_process

from hyperbelief import BBA, AtomFrame, Frame, Model, canonicalize, lattice


def run_script(name, *args):
    done = run_process(str(ROOT / "scripts" / name), *args, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_module_entry_point_passes_exit_codes_through():
    done = run_process("-m", "hyperbelief", "enumerate", "--n", "2", encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["∅", "a∩b", "a", "b", "a ∪ b", "total 5"]
    refused = run_process("-m", "hyperbelief", "enumerate", "--n", "6", encoding="utf-8")
    assert refused.returncode == 4
    assert refused.stdout == ""
    assert "--allow-large" in refused.stderr


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
    # the whole table, byte for byte (Python 3.11.7)
    table = ("\n".join(lines) + "\n").encode("utf-8")
    assert hashlib.sha256(table).hexdigest() == "d006ee4ab312faad17d1a1d226ee80cc584ed764df682f90e673b03aacc87c48"


def test_dedekind_growth_counts():
    lines = run_script("dedekind_growth.py", "--max-n", "4")
    assert lines[0].split() == ["n", "elements", "seconds", "elems/s"]
    assert [tuple(map(int, line.split()[:2])) for line in lines[1:]] == [
        (1, 2),
        (2, 5),
        (3, 19),
        (4, 167),
    ]


def test_side_by_side_timing_reads_one_on_an_a_a_run():
    # the same tree under two module names: the same bytes on every op, and a
    # median op-time ratio near 1 (a loose bound, as the host is shared)
    lines = run_script(
        "ab_inprocess.py", str(ROOT), str(ROOT), "--workload", "tp2-sweep",
        "--seeds", "1", "--ops", "60", "--passes", "5",
    )
    summary = json.loads(lines[-1])
    assert (summary["ops"], summary["passes"], summary["differ"]) == (60, 5, 0)
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert 0.8 < summary["median"] < 1.25
    assert 0 <= summary["wins"] <= 5


def test_side_by_side_timing_refuses_trees_that_print_other_bytes(tmp_path):
    # a copy of the tree that prints table cells to 11 digits, not 12
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_path = tmp_path / "src" / "hyperbelief" / "cli.py"
    text = cli_path.read_text(encoding="utf-8")
    assert text.count(":.12g}") == 1
    cli_path.write_text(text.replace(":.12g}", ":.11g}"), encoding="utf-8")
    done = run_process(
        str(ROOT / "scripts" / "ab_inprocess.py"), str(ROOT), str(tmp_path), "--workload", "tp2-sweep",
        "--seeds", "1", "--ops", "20", "--passes", "1", encoding="utf-8",
    )
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["differ"] > 0


def test_readme_library_example_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends with a comment that shows what it prints
    expected = [
        line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    exec(compile(block, "README.md", "exec"), {})
    assert expected
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_command_line_block_is_what_fuse_prints(monkeypatch):
    # each text block that runs hyperbelief shows its stdout, then "$ echo $?" and the exit code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```text\n")[1:] if b.startswith("$ hyperbelief ")]
    monkeypatch.chdir(ROOT)  # the commands name their scenarios relative to the checkout
    files = []
    for block in blocks:
        command, rest = block.split("\n", 1)
        printed, code = rest.rsplit("$ echo $?\n", 1)
        argv = shlex.split(command)[2:]
        assert run_main(argv)[:2] == (int(code), printed), command
        files.append(argv[-1])
    assert sorted(files) == sorted(f"scenarios/{p.name}" for p in (ROOT / "scenarios").glob("*.json"))


def test_benchmark_tracer_wraps_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    argv = ["fuse", str(TP2_PATH), "--format", "json"]
    untraced = run_main(argv)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        traced = run_main(argv)
        # the tracer reads .terms before __post_init__ absorbs the masks
        absorbed = canonicalize(Frame(("a", "b")), [{0, 1}, {0}])
        # the engines build BBAs through BBA._trusted; the public constructor is traced
        frame = Frame(("a", "b"))
        BBA(Model.free(frame), {frame.singleton("a"): 1.0})
        # the dst engine refines through lattice._atom_mask; the public function is
        # traced, and the tracer swaps it in the package's module namespaces
        axes = AtomFrame((("a", "a'"), ("b", "b'")))
        refined = lattice.refine_to_atoms(frame.singleton("b"), axes, {"a": (0, 0), "b": (1, 0)})
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert absorbed.terms == (frozenset({0}),)
    assert refined == frozenset({0, 2})
    metrics = tracer.metrics()
    # each constructor routes through its class's __post_init__, which the tracer wraps
    assert metrics["lattice.Proposition.calls"] > 0
    assert metrics["lattice.Model.calls"] > 0
    assert metrics["belief.BBA.calls"] > 0
    # refine_to_atoms still returns a len()-able atom set for the tracer to count
    assert metrics["lattice.refine_to_atoms.calls"] > 0


def test_committed_benchmark_runs_are_correct():
    # each BENCH_*.json holds benchmark runs, each with the command that made it and
    # the run's last output line verbatim; a speed claim may only cite correct runs
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert runs, path.name
        for run in runs:
            command = shlex.split(run["command"])
            assert command[:2] == ["python3", "perfbench/run.py"], path.name
            assert command[command.index("--seed") + 1] == str(run["seed"]), path.name
            assert run["last_line"]["correct"] is True, (path.name, run["command"])
            assert run["last_line"]["failed"] == 0, (path.name, run["command"])
