#!/usr/bin/env python3
"""The hyperbelief benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
``src/``.  The seed makes the scenario files, which are written under
``.perfbench-work/`` before anything is timed.  Each workload runs in a
child interpreter of its own (one at a time, no extra threads) as a closed
loop with one client: the next op starts when the previous one returns.  An
op is one call of ``hyperbelief.cli.main`` with stdout captured in memory.

With ``--trace 0`` the last line holds the end-to-end metrics, measured with
tracing off:

* ops_per_s    -- ops completed per second of the timed loop;
* op_p50_ms    -- the median op latency;
* op_tail_ms   -- the highest whole percentile of op latency, at most p95,
  with at least 10 ops beyond it (the summary names the percentile and the
  op count, and prints p98 and p99 too);
* cold_op_ms   -- the workload's first op in a fresh interpreter, right after
  import; the median over fresh interpreters;
* setup_s      -- spawn of a fresh interpreter until ``import
  hyperbelief.cli`` has finished, median over the same interpreters;
* peak_rss_mb  -- ru_maxrss of the workload child.

Every timing is scaled to a reference host speed (see CAL_REF_MS); the
summary above the last line prints the raw wall-clock figures beside them,
and the failed ratio.  With ``--trace 1`` a fixed list of ops runs once
untraced and once with the tracer installed, and the last line holds the
per-layer metrics, unscaled.  Every answer is checked against an independent
reference outside the timed region; see reference.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Checker, perturbed
from tracer import HOT
from workloads import DSM_ROUND, DST_LADDER, ENUMERATE_COUNT, WORKLOADS, tp2_contradicted

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# The slowest op here (64 atoms) takes about 2 s on a 2-core x86 host; an op
# that takes longer than this is recorded as failed "over cap" and ends the
# run.
OP_CAP_S = 60.0
# setup_s and cold_op_ms come from this many fresh interpreters, spawned
# between the rounds of the timed loop so that they sample the same spells of
# a noisy host as the loop does; one more spawn first fills the bytecode
# cache and is discarded.
COLD_SPAWNS = 30
# A shared 2-core x86 VM switches between speeds up to 1.5x apart, in spells
# of seconds to minutes, so a raw timing moves by up to a third between runs
# of the same code.  The child times a fixed pure-Python kernel that runs no
# package code (``calibrate`` in child.py) next to the ops: after each cold
# op, and in the loop at least every quarter second.  Each timing is scaled
# by CAL_REF_MS over the kernel's time around it, so it reads as on a host
# where the kernel takes CAL_REF_MS: a loop op by the mean of the kernel
# timings just before and just after it, the medians of the cold
# interpreters by the median of their kernel timings.  On that VM the raw
# ops_per_s of enumerate spanned 25% over five runs and the scaled one 7%.
CAL_REF_MS = 6.0
# rounds of the op pool, times passes over them, that make the traced list
TRACE_OPS = {"tp2-sweep": (60, 1), "dsm-rules": (2, 1), "dst-atoms": (2, 1), "enumerate": (1, 12)}
# the scaling curves; a workload without sizes reports 0 for each point
SIZES = [f"R{r}" for r in sorted(set(DSM_ROUND))] + [f"atoms{a}" for a in DST_LADDER]


class OverCap(Exception):
    pass


class Child:
    """A child interpreter whose JSON lines are read under a per-line cap."""

    def __init__(self, root: Path, *args: str):
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._buffer = b""
        self.rusage = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.rusage is None:
            self.finish(kill=True)

    def line(self, cap: float) -> dict | None:
        """The next message, None at end of output; OverCap after ``cap`` s."""
        deadline = time.monotonic() + cap
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise OverCap
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def resume(self) -> None:
        """Let a loop child that paused after a round go on."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()

    def finish(self, kill: bool = False) -> int:
        """Wait for the child; returns its exit code and keeps its rusage."""
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode


def scaled(value: float, cal: float) -> float:
    """A timing as on a host where the kernel takes CAL_REF_MS."""
    return value * CAL_REF_MS / cal


def nearest_rank(samples, p: int) -> float:
    """The p-th percentile of the samples, by nearest rank."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, p) for the highest whole percentile p <= 95 with 10 samples beyond it.

    With 10 or fewer samples there is none, so the maximum.  Above p95 the
    latency of ops of a few ms is set by stalls of the host, not by the
    program: on a shared 2-core x86 VM p99 of tp2-sweep moved by half its
    median between runs of the same code, p95 by a twentieth.
    """
    n = len(samples)
    p = min(95, (100 * (n - 10)) // n) if n > 10 else 100
    return nearest_rank(samples, p), p


class Run:
    def __init__(self, args):
        self.args = args
        self.root = Path.cwd()
        self.work = self.root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.checker = Checker()
        self.problems: list[str] = []

    # ---------------------------------------------------------------- inputs

    def make_inputs(self) -> None:
        rounds = WORKLOADS[self.args.workload](random.Random(self.args.seed))
        self.work.mkdir(parents=True)
        self.pool = [op for r in rounds for op in r]
        for i, op in enumerate(self.pool):
            if op["file"] is not None:
                path = self.work / f"{i}.json"
                path.write_text(op["file"], encoding="utf-8")
                op["argv"][1] = str(path.relative_to(self.root))
        index = itertools.count()
        self.rounds = [[[next(index), op["argv"]] for op in r] for r in rounds]

    def ops_file(self, name: str, rounds: list) -> str:
        path = self.work / name
        path.write_text(json.dumps(rounds), encoding="utf-8")
        return str(path)

    # ------------------------------------------------------------ processes

    def cold(self, argv: list) -> tuple[float | None, dict]:
        """One fresh interpreter: (seconds until the import finished, op message).

        An op over the cap gives (None, {"over_cap": True}).
        """
        with Child(self.root, "cold", json.dumps(argv)) as child:
            try:
                message = child.line(OP_CAP_S)
            except OverCap:
                child.finish(kill=True)
                return None, {"over_cap": True}
            code = child.finish()
        if message is None or code != 0:
            raise RuntimeError(f"cold child exited {code}")
        return message["ready"] - child.spawned, message

    def stream(self, *args: str, between_rounds=None) -> tuple[list[dict], dict | None, float]:
        """Run a loop/trace child: (op messages, totals, peak RSS in MB).

        ``between_rounds`` runs whenever the loop child pauses after a round.
        An op that follows a kernel timing gets its ``cal``.
        """
        messages, totals = [], None
        pending, last_cal = [], None
        with Child(self.root, *args) as child:
            try:
                while True:
                    message = child.line(OP_CAP_S)
                    if message is None:
                        break
                    if message.get("done"):
                        totals = message
                    elif message.get("round"):
                        between_rounds(message)
                        child.resume()
                    elif "cal" in message:
                        for m in pending:
                            m["cal"] = (m["cal"] + message["cal"]) / 2
                        pending, last_cal = [], message["cal"]
                    else:
                        messages.append(message)
                        if last_cal is not None:
                            message["cal"] = last_cal
                            pending.append(message)
            except OverCap:
                messages.append({"i": None, "phase": "timed", "over_cap": True})
                child.finish(kill=True)
            else:
                if child.finish() != 0:
                    self.problems.append(f"workload child exited {child.proc.returncode}")
                    totals = None
        return messages, totals, child.rusage.ru_maxrss / 1024

    # -------------------------------------------------------------- checking

    def judge(self, messages: list[dict]) -> tuple[int, int, int]:
        """Check every op; returns (failed, wrong answers, repeats compared)."""
        first: dict[int, dict] = {}
        verdicts: dict[int, str | None] = {}
        failed = wrong = repeats = 0
        for m in messages:
            i = m["i"]
            if m.get("over_cap"):
                problem = "over cap"
            elif i not in first:
                first[i] = m
                if m["raised"]:
                    verdicts[i] = f"raised {m['raised']}"
                else:
                    verdicts[i] = self.checker.check(self.pool[i], m["code"], m["out"], m["err"])
                    wrong += verdicts[i] is not None
                problem = verdicts[i]
            else:
                repeats += 1
                problem = verdicts[i]
                if m["digest"] != first[i]["digest"]:
                    problem = "not byte-identical to its first run"
                    wrong += 1
            if problem and m["phase"] != "warmup":
                failed += 1
                if len(self.problems) < 5:
                    label = "the running op" if i is None else f"op {i}"
                    self.problems.append(f"{label} ({m['phase']}): {problem}")
        return failed, wrong, repeats

    def self_check(self, messages: list[dict]) -> bool:
        """A perturbed reference must make the checker reject a right answer.

        None if no op gave an answer to perturb.
        """
        m = next((m for m in messages if "out" in m and not m["raised"]
                  and self.pool[m["i"]]["expect"]["kind"] != "refused"), None)
        if m is None:
            return None
        op = self.pool[m["i"]]
        if op["expect"]["kind"] == "enumerate":
            op = {**op, "expect": {**op["expect"], "count": ENUMERATE_COUNT + 1}}
            return self.checker.check(op, m["code"], m["out"], m["err"]) is not None
        refs = perturbed(self.checker.references(op))
        return self.checker.check(op, m["code"], m["out"], m["err"], refs) is not None

    def probe_contradicted(self) -> str:
        """The refused-input case a later change must fix; not a timed op."""
        path = self.work / "contradicted.json"
        path.write_text(json.dumps(tp2_contradicted(0.1, 0.1, 0.1)), encoding="utf-8")
        _, m = self.cold(["fuse", str(path.relative_to(self.root))])
        if m.get("over_cap"):
            return "the contradicted-rule probe went over the cap"
        if m["code"] == 2:
            return "contradicted-rule input refused with exit 2"
        got = m["raised"] or f"exit {m['code']}"
        return f"known defect: a contradicted-rule input gives {got}, not exit 2"

    # ----------------------------------------------------------------- modes

    def end_to_end(self) -> dict:
        first = self.pool[0]["argv"]
        self.cold(first)
        spawns = []

        def between_rounds(message):
            share = min(1.0, message["busy"] / self.args.seconds)
            while len(spawns) < int(COLD_SPAWNS * share):
                spawns.append(self.cold(first))

        messages, totals, rss = self.stream(
            "loop", self.ops_file("loop.json", self.rounds), str(self.args.seconds), between_rounds=between_rounds
        )
        failed, wrong, repeats = self.judge(messages)
        cold_problems = [self.judge_cold(m, messages) for _, m in spawns]
        failed += sum(p is not None for p in cold_problems)
        timed = [m for m in messages if m["phase"] == "timed"]
        latencies = [m["ms"] for m in timed if "ms" in m]
        live = self.self_check(messages)
        self.correct = failed == wrong == 0 and totals is not None and live is True
        if any(cold_problems):
            self.problems.append(f"cold op: {next(p for p in cold_problems if p)}")
        self.attempted, self.failed = len(timed) + len(spawns), failed
        self.report = [
            f"checker: {len(set(m['i'] for m in timed if 'ms' in m))} distinct ops checked against the reference, "
            f"{repeats + len(spawns)} repeats compared byte for byte; self-check "
            + {True: "flagged the perturbed reference (live)", False: "MISSED the perturbed reference",
               None: "had no right answer to perturb"}[live],
            f"failed_ratio {failed / max(1, self.attempted):.6g} ({failed} of {self.attempted} ops, "
            f"{len(spawns)} of them cold; printed only, as it is 0 when all is well)",
        ]
        if self.args.workload == "tp2-sweep":
            self.report.append(self.probe_contradicted())
        metrics = {}
        if totals and latencies:
            ref = [scaled(m["ms"], m["cal"]) for m in timed if "ms" in m]
            value, percentile = tail(ref)
            metrics["ops_per_s"] = (len(ref) / sum(ref) * 1e3, "1/s")
            metrics["op_p50_ms"] = (statistics.median(ref), "ms")
            metrics["op_tail_ms"] = (value, "ms")
            raw_tail, _ = tail(latencies)
            centiles = statistics.quantiles(ref, n=100) if len(ref) > 1 else ref * 99
            cals = [m["cal"] for m in timed if "ms" in m]
            self.report[:0] = [
                f"{len(timed)} ops in {totals['wall']:.3f} s (closed loop, 1 client, {len(self.pool)} distinct ops)",
                f"raw: ops_per_s {len(timed) / totals['wall']:.6g} 1/s, op_p50_ms {statistics.median(latencies):.6g} ms, "
                f"op_tail_ms {raw_tail:.6g} ms; kernel {statistics.median(cals):.4g} ms "
                f"(min {min(cals):.4g}, max {max(cals):.4g}; timings below are scaled to {CAL_REF_MS:g} ms)",
                (f"op_tail_ms is p{percentile} of {len(ref)} ops (at least 10 beyond it); "
                 if percentile < 100 else f"op_tail_ms is the slowest of {len(ref)} ops; ")
                + "p90/p95/p98/p99 " + "/".join(f"{centiles[q - 1]:.4g}" for q in (90, 95, 98, 99)) + " ms",
            ]
        else:
            self.problems.append("the timed loop did not finish")
        started = [(setup, m) for setup, m in spawns if setup is not None]
        if started:
            cold_ms = statistics.median(m["ms"] for _, m in started)
            setup = statistics.median(setup for setup, _ in started)
            cal = statistics.median(m["cal"] for _, m in started)
            metrics["cold_op_ms"] = (scaled(cold_ms, cal), "ms")
            metrics["setup_s"] = (scaled(setup, cal), "s")
            self.report.append(
                f"cold_op_ms and setup_s from {len(started)} fresh interpreters; raw medians "
                f"{cold_ms:.6g} ms and {setup:.6g} s, kernel {cal:.4g} ms"
            )
        metrics["peak_rss_mb"] = (rss, "MB")
        return metrics

    def judge_cold(self, message: dict, messages: list[dict]) -> str | None:
        """A cold op must be right and byte-identical to the loop's first run of it."""
        if message.get("over_cap"):
            return "over cap"
        if message["raised"]:
            return f"raised {message['raised']}"
        warm = next((m for m in messages if m["i"] == 0 and "out" in m), None)
        if warm is not None and (message["code"], message["out"]) != (warm["code"], warm["out"]):
            return "not byte-identical to the warm run"
        return self.checker.check(self.pool[0], message["code"], message["out"], message["err"])

    def per_layer(self) -> dict:
        spans = self.work.parent / f"spans-{self.args.workload}-{self.args.seed}.jsonl"
        count, passes = TRACE_OPS[self.args.workload]
        messages, totals, _ = self.stream("trace", self.ops_file("trace.json", self.rounds[:count] * passes), str(spans))
        failed, wrong, repeats = self.judge(messages)
        self.correct = failed == wrong == 0 and totals is not None and self.self_check(messages) is True
        measured = [m for m in messages if m["phase"] != "warmup"]
        self.attempted, self.failed = len(measured), failed
        metrics = {}
        if totals:
            for name, value in totals["layers"].items():
                unit = "ms" if name.endswith("_ms") else "bytes" if name.endswith("bytes_out") else "count"
                metrics[name] = (value, unit)
        by_size: dict[str, list[float]] = {}
        for m in messages:
            if m["phase"] == "untraced" and self.pool[m["i"]]["size"]:
                by_size.setdefault(self.pool[m["i"]]["size"], []).append(m["ms"])
        for size in SIZES:
            metrics[f"size.{size}.op_p50_ms"] = (statistics.median(by_size.get(size, [0.0])), "ms")
        if totals:
            metrics["trace.overhead_ratio"] = (totals["untraced_wall"] / totals["traced_wall"], "ratio")
        self.report = [
            f"{totals['ops'] if totals else '?'} ops untraced, then traced; spans in {spans.relative_to(self.root)}",
            f"hot leaves summed per parent, not kept as spans: {', '.join(sorted(HOT))}",
            f"failed {failed} of {len(measured)} ops; {repeats} repeats compared byte for byte",
        ]
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "hyperbelief" / "cli.py").is_file():
        print("error: run from the root of a hyperbelief checkout (no src/hyperbelief here)", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        run.make_inputs()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in run.report + run.problems:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
