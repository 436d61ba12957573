"""Benchmark child process: runs ops through ``hyperbelief.cli.main``.

    python3 child.py cold '<argv as JSON>'
        Import the CLI in this fresh interpreter, then run one op.  Prints
        the CLOCK_MONOTONIC time at which the import finished and the op.

    python3 child.py loop <ops.json> <seconds>
        One warm-up op, then a closed loop with one client: whole rounds of
        ops, each op starting when the previous one returned, until the
        rounds have taken ``seconds``.

    python3 child.py trace <ops.json> <spans.jsonl>
        The ops once untraced, then once more with the tracer installed.

The ops file is a list of rounds, each a list of [pool index, argv].  Each
op's stdout and stderr are captured in memory.  The child writes one
JSON line per op to its real stdout (the parent enforces the per-op cap on
these lines) and a last line with the totals.  The output text of an op is
sent the first time its pool index is seen; later runs send a digest.

The cold and loop modes also time a fixed pure-Python kernel (``calibrate``)
after the cold op, and in the loop before any op that starts CAL_EVERY_S or
more after the last such timing, outside the op's own time.  The kernel
runs no package code, so its time tells the parent how fast the host ran
around each op.
"""

import sys
import time

from hyperbelief import cli  # first, so that "cold" times this import

READY = time.monotonic()

import contextlib
import gc
import hashlib
import io
import json

PROTOCOL = sys.stdout
CAL_LOOPS = 100_000
CAL_EVERY_S = 0.25


def calibrate():
    """ms taken by a fixed pure-Python kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def run_op(argv):
    """(exit code or None, stdout, stderr, exception text or None, ms)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is recorded, not fatal
            raised = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - start) * 1e3
    return code, out.getvalue(), err.getvalue(), raised, ms


def send(message):
    PROTOCOL.write(json.dumps(message) + "\n")
    PROTOCOL.flush()


def run_and_send(index, argv, phase, seen):
    code, out, err, raised, ms = run_op(argv)
    message = {"i": index, "phase": phase, "code": code, "ms": ms, "raised": raised}
    message["digest"] = hashlib.sha1(f"{code}\0{out}".encode("utf-8")).hexdigest()
    if index not in seen:
        seen.add(index)
        message["out"], message["err"] = out, err
    send(message)


def closed_loop(rounds, seconds, seen):
    """Whole rounds until ``seconds`` of them have passed: (ops, seconds).

    After each round the child reports and waits for a line on stdin, so
    that the parent can start its cold interpreters spread over the run
    while this one is idle.  The waits and the kernel timings are not part
    of the measured time.
    """
    index, argv = rounds[0][0]
    run_and_send(index, argv, "warmup", seen)
    ops = 0
    busy = 0.0
    last_cal = None
    while busy < seconds:
        start = time.perf_counter()
        for index, argv in rounds[ops // len(rounds[0]) % len(rounds)]:
            now = time.perf_counter()
            if last_cal is None or now - last_cal >= CAL_EVERY_S:
                send({"cal": calibrate()})
                last_cal = time.perf_counter()
                start += last_cal - now
            run_and_send(index, argv, "timed", seen)
            ops += 1
        busy += time.perf_counter() - start
        send({"round": True, "busy": busy})
        sys.stdin.readline()
    return ops, busy


def fixed_pass(rounds, phase, seen, tracer=None):
    """Every op once, in order: (ops, wall seconds)."""
    ops = 0
    start = time.perf_counter()
    for index, argv in (op for r in rounds for op in r):
        if tracer:
            tracer.op = ops
        run_and_send(index, argv, phase, seen)
        ops += 1
    return ops, time.perf_counter() - start


def main():
    mode = sys.argv[1]
    if mode == "cold":
        code, out, err, raised, ms = run_op(json.loads(sys.argv[2]))
        cal = calibrate()
        send({"ready": READY, "ms": ms, "cal": cal, "code": code, "raised": raised, "out": out, "err": err})
        return
    with open(sys.argv[2], encoding="utf-8") as handle:
        rounds = json.load(handle)
    seen = set()
    if mode == "loop":
        ops, wall = closed_loop(rounds, float(sys.argv[3]), seen)
        send({"done": True, "ops": ops, "wall": wall})
        return
    from tracer import Tracer

    index, argv = rounds[0][0]
    run_and_send(index, argv, "warmup", seen)
    ops, untraced = fixed_pass(rounds, "untraced", seen)
    gc.collect()  # the traced pass should not pay for the untraced one's garbage
    tracer = Tracer()
    tracer.install()
    _, traced = fixed_pass(rounds, "traced", seen, tracer)
    tracer.uninstall()
    tracer.write_spans(sys.argv[3])
    send({"done": True, "ops": ops, "untraced_wall": untraced, "traced_wall": traced,
          "layers": tracer.metrics(), "spans": len(tracer.spans)})


if __name__ == "__main__":
    main()
