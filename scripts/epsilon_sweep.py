#!/usr/bin/env python3
"""Sweep rule weights on the weighted-rule triangle and compare engines.

The triangle is read from scenarios/tp2.json.  For each epsilon its three
rules get weights 1-e1, 1-e2, 1-e3 and the scenario is fused with every
engine.  The table shows how the point estimates, the refined-frame
Dempster intervals, and the constrained hybrid intervals drift apart as the
rules lose certainty.
"""

import argparse
from pathlib import Path

from hyperbelief import Scenario, WeightedRule, run_scenario
from hyperbelief.cli import parse_scenario

TP2 = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios" / "tp2.json").read_text("utf-8"))


def scenario(e1: float, e2: float, e3: float) -> Scenario:
    """The triangle of scenarios/tp2.json with its rules weighted 1-e1, 1-e2 and 1-e3."""
    rules = tuple(WeightedRule(r.antecedent, r.consequent, 1 - e) for r, e in zip(TP2.rules, (e1, e2, e3)))
    return Scenario(TP2.model, rules, TP2.observations, TP2.queries, TP2.engines, TP2.dst_axes)


def sweep_points(args) -> list[tuple[float, float]]:
    diagonal = [(t, t) for t in args.grid]
    if args.inversions:
        diagonal += [(0.01, 0.001), (0.001, 0.01)]
    return diagonal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        type=float,
        nargs="+",
        default=[0.001, 0.01, 0.05, 0.1, 0.2, 0.3],
        help="values used for e1 = e2",
    )
    parser.add_argument("--eps3", type=float, default=0.1, help="weakness of the chain rule")
    parser.add_argument(
        "--no-inversions",
        dest="inversions",
        action="store_false",
        help="skip the asymmetric (0.01, 0.001) rows",
    )
    args = parser.parse_args()

    header = (
        f"{'e1':>7} {'e2':>7} | {'bayes fly':>10} {'bayes not':>10} |"
        f" {'dst Bel(f)':>10} {'dst Pl(f)':>10} {'conflict':>8} |"
        f" {'dsm Bel(f)':>10} {'dsm Pl(f)':>10} {'conflict':>8}"
    )
    print(header)
    print("-" * len(header))
    for e1, e2 in sweep_points(args):
        report = run_scenario(scenario(e1, e2, args.eps3))
        bayes = report.engine("bayes")
        dst = report.engine("dst")
        dsm = report.engine("dsm")
        fly = bayes.estimates.p_fly if bayes.estimates else float("nan")
        not_fly = bayes.estimates.p_not_fly if bayes.estimates else float("nan")
        dst_f = dst.queries[0]
        dsm_f = dsm.queries[0]
        print(
            f"{e1:>7.3g} {e2:>7.3g} | {float(fly):>10.6f} {float(not_fly):>10.6f} |"
            f" {dst_f.bel:>10.6f} {dst_f.pl:>10.6f} {dst.conflict_mass:>8.4f} |"
            f" {dsm_f.bel:>10.6f} {dsm_f.pl:>10.6f} {dsm.conflict_mass:>8.4f}"
        )


if __name__ == "__main__":
    main()
