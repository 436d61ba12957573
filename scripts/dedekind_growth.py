#!/usr/bin/env python3
"""Time the hyper-power set enumeration as the frame grows.

The element counts follow the Dedekind numbers minus one (1, 2, 5, 19, 167,
7580, 7828353, ...), so the walltime explodes quickly.  The script counts a
stream of checked propositions without keeping them: n = 5 takes about
0.035 s, and n = 6 (gated behind --max-n 6) about 59 s, on Python 3.11 on a
2-core Xeon VM.
"""

import argparse
import time

from hyperbelief import Frame, iter_hyper_power_set

NAMES = "abcdef"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5, choices=range(1, 7))
    args = parser.parse_args()

    print(f"{'n':>3} {'elements':>10} {'seconds':>10} {'elems/s':>12}")
    for n in range(1, args.max_n + 1):
        frame = Frame(tuple(NAMES[:n]))
        start = time.perf_counter()
        count = sum(1 for _ in iter_hyper_power_set(frame))
        elapsed = time.perf_counter() - start
        rate = count / elapsed if elapsed else float("inf")
        print(f"{n:>3} {count:>10} {elapsed:>10.3f} {rate:>12.0f}")


if __name__ == "__main__":
    main()
