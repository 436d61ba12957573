"""Seeded generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from ``--seed`` and returns
a list of rounds; a round is a list of ops.  An op is a dict with

* ``argv``     -- the arguments handed to ``hyperbelief.cli.main``;
* ``file``     -- the scenario text to write before the timed loop (or None);
* ``expect``   -- what the checker needs: ``kind`` (ok, inconsistent,
  refused) plus the generator's own parameters;
* ``size``     -- a size label for the scaling curves (or None).

The program only ever sees the scenario files and the argv.  The same seed
gives the same files and the same op order.
"""

from __future__ import annotations

import json
import random

from reference import focal_count, region_semantics

FORMATS = ("table", "json", "csv")

# --------------------------------------------------------------- tp2-sweep
#
# Why: penguin-triangle scenarios shaped like scenarios/tp2.json, with all
# three engines and all three output formats.  Every combination has only 8
# source tuples, so the fixed cost per op dominates (argparse, parse, BBA
# construction, bayes Fraction arithmetic, emit).  The inputs share one
# frame, model and set of propositions, so memoisation across ops would show
# in the warm loop but not in cold_op_ms.  This is where strict parsing,
# provenance output or tracing hooks would show their cost.
#
# Each round of 20 ops holds 2 all-certain rule sets (dst must report them
# inconsistent, exit 3) and 2 inputs that must be refused with exit 2: bad
# JSON and a wrong field type.  A rule the constraints contradict must be
# refused too, but today run_scenario lets its ValueError escape (exit 1
# with a traceback).  The benchmark keeps its workloads to ops that do not
# fail, so that case runs once per run as a probe outside the timed loop and
# the report names the defect until it is fixed.

TP2_GRID = tuple(round(0.001 * 500 ** (k / 11), 6) for k in range(12))
TP2_ROUNDS = 60
TP2_ROUND_LEN = 20


def _break_type(scenario: dict, which: int) -> str:
    """Give one field a wrong type; returns the field the error must name."""
    if which == 0:
        scenario["rules"][1]["weight"] = str(scenario["rules"][1]["weight"])
        return "rules[1].weight"
    if which == 1:
        scenario["frame"] = "p b f nf"
        return "frame"
    if which == 2:
        scenario["observations"][0][0][0] = 7
        return "observations[0][0][0]"
    scenario["queries"] = {"f": 1}
    return "queries"


def tp2_scenario(e1: float, e2: float, e3: float) -> dict:
    return {
        "frame": ["p", "b", "f", "nf"],
        "constraints": [["f", "nf"]],
        "rules": [
            {"if": [["p"]], "then": [["nf"]], "weight": 1 - e1},
            {"if": [["b"]], "then": [["f"]], "weight": 1 - e2},
            {"if": [["p"]], "then": [["b"]], "weight": 1 - e3},
        ],
        "observations": [[["p", "b"]]],
        "queries": [[["f"]], [["nf"]]],
        "engines": ["bayes", "dst", "dsm"],
        "dst_axes": {
            "axes": [["f", "nf"], ["b", "b_"], ["p", "p_"]],
            "map": {"f": [0, 0], "nf": [0, 1], "b": [1, 0], "p": [2, 0]},
        },
    }


def tp2_contradicted(e1: float, e2: float, e3: float) -> dict:
    """A tp2 scenario whose first rule concludes f∩nf, which the model forbids."""
    scenario = tp2_scenario(e1, e2, e3)
    scenario["rules"][0]["then"] = [["f", "nf"]]
    return scenario


def _tp2_op(index: int, scenario: dict | str, expect: dict) -> dict:
    fmt = FORMATS[index % len(FORMATS)]
    text = scenario if isinstance(scenario, str) else json.dumps(scenario)
    return {
        "argv": ["fuse", None, "--format", fmt],
        "file": text,
        "expect": {**expect, "fmt": fmt},
        "size": None,
    }


def tp2_sweep(rng) -> list[list[dict]]:
    rounds = []
    index = 0
    for r in range(TP2_ROUNDS):
        ops = []
        specials = rng.sample(range(1, TP2_ROUND_LEN), 4)
        for slot in range(TP2_ROUND_LEN):
            eps = tuple(rng.choice(TP2_GRID) for _ in range(3))
            if slot == specials[0] or slot == specials[1]:
                eps = (0.0, 0.0, 0.0)
                op = _tp2_op(index, tp2_scenario(*eps), {"kind": "inconsistent", "eps": eps})
            elif slot == specials[2]:
                text = json.dumps(tp2_scenario(*eps))
                op = _tp2_op(index, text[: rng.randrange(10, len(text) - 1)], {"kind": "refused"})
            elif slot == specials[3]:
                scenario = tp2_scenario(*eps)
                field = _break_type(scenario, r % 4)
                op = _tp2_op(index, scenario, {"kind": "refused", "field": field})
            else:
                op = _tp2_op(index, tp2_scenario(*eps), {"kind": "ok", "eps": eps})
            if r == 0 and slot == 0:
                # the cold op is an ordinary all-engines table report
                op["argv"][3] = "table"
                op["expect"]["fmt"] = "table"
            ops.append(op)
            index += 1
        rounds.append(ops)
    return rounds


# --------------------------------------------------------------- dsm-rules
#
# Why: the dsm engine on a 6-singleton frame with two declared exclusive
# pairs and R = 8..12 rules.  dsm_hybrid_combine walks the 2^R product of
# the rule sources (every rule here has exactly two focal elements), so cost
# doubles per rule and the inputs share little.  ROADMAP item 2 (fold instead
# of product) and the integer-mask terms of item 3 act here.
#
# How many meets turn empty early, and so the cost at one R, depends on how
# the rules overlap.  The overlap comes from one fixed 12-rule shape, of
# which a scenario with R rules takes the first R; the seed relabels the
# singletons and draws the weights and queries.  So the cost per R stays put
# from seed to seed while the answers change, and R + 1 costs twice R.

DSM_FRAME = ("a", "b", "c", "d", "e", "g")
# One round.  A shared 2-core x86 VM changes speed by up to 1.5x in spells,
# which the scaling in run.py corrects only in part, so a percentile that
# falls on the edge between ops of two costs jumps from run to run.  With
# R = 11 five times and R = 12 once, the op with ten slower ops beyond it is
# an R = 11 op in the top fifth of the R = 11 ops at any run length from 5
# to 10 rounds.
DSM_ROUND = (8, 9, 10, 10, 11, 11, 11, 11, 11, 12)
# Enough rounds that no scenario file comes back in a timed loop even at
# several times today's speed: a cache keyed on the inputs would otherwise
# look like a gain that a one-shot CLI user never gets.
DSM_ROUNDS = 40
# antecedent/consequent shape per rule slot: single, 2-way intersection or
# 2-way union
_DSM_SHAPES = (
    ("single", "single"),
    ("inter", "single"),
    ("single", "union"),
    ("union", "single"),
    ("single", "inter"),
    ("inter", "union"),
)
_QUERY_SHAPES = ("single", "inter", "union")


def _dsm_prop(rng, shape: str) -> list[list[str]]:
    if shape == "single":
        return [[rng.choice(DSM_FRAME)]]
    x, y = rng.sample(DSM_FRAME, 2)
    return [[x, y]] if shape == "inter" else [[x], [y]]


def dsm_shape() -> dict:
    """The fixed shape: constraints, 12 rule propositions, 2 observations."""
    rng = random.Random("dsm-shape")
    frame = list(DSM_FRAME)
    pairs = rng.sample([[x, y] for i, x in enumerate(DSM_FRAME) for y in DSM_FRAME[i + 1:]], 2)
    rules = []
    for slot in range(max(DSM_ROUND)):
        a_shape, c_shape = _DSM_SHAPES[slot % len(_DSM_SHAPES)]
        while True:
            rule = {"if": _dsm_prop(rng, a_shape), "then": _dsm_prop(rng, c_shape), "weight": 0.8}
            if focal_count(frame, pairs, rule) == 2:
                break
        rules.append(rule)
    obs = []
    while len(obs) < 2:
        prop = _dsm_prop(rng, rng.choice(("single", "inter")))
        if region_semantics(frame, pairs, prop):
            obs.append(prop)
    return {"frame": frame, "constraints": pairs, "rules": rules, "observations": obs}


def dsm_scenario(rng, shape: dict, rules: int) -> dict:
    names = dict(zip(DSM_FRAME, rng.sample(DSM_FRAME, len(DSM_FRAME))))

    def relabel(nested):
        return [[names[n] for n in term] for term in nested]

    constraints = [[names[n] for n in pair] for pair in shape["constraints"]]
    queries = []
    while len(queries) < 8:
        prop = _dsm_prop(rng, _QUERY_SHAPES[len(queries) % 3])
        if region_semantics(shape["frame"], constraints, prop):
            queries.append(prop)
    return {
        "frame": shape["frame"],
        "constraints": constraints,
        "rules": [
            {
                "if": relabel(rule["if"]),
                "then": relabel(rule["then"]),
                "weight": round(rng.uniform(0.6, 0.95), 4),
            }
            for rule in shape["rules"][:rules]
        ],
        "observations": [relabel(obs) for obs in shape["observations"][: 1 + rules % 2]],
        "queries": queries,
        "engines": ["dsm"],
    }


def _json_op(scenario: dict, size: str) -> dict:
    return {
        "argv": ["fuse", None, "--format", "json"],
        "file": json.dumps(scenario),
        "expect": {"kind": "ok", "fmt": "json"},
        "size": size,
    }


def dsm_rules(rng) -> list[list[dict]]:
    shape = dsm_shape()
    return [
        [_json_op(dsm_scenario(rng, shape, count), f"R{count}") for count in DSM_ROUND]
        for _ in range(DSM_ROUNDS)
    ]


# --------------------------------------------------------------- dst-atoms
#
# Why: the dst engine on the triangle plus extra binary or ternary axes, at
# 16 / 32 / 48 / 64 atoms.  There are at most 6 sources, but each refined
# proposition has up to 64 terms, each reduced against up to 2016 pair
# constraints, and building Model.shafer alone is O(constraints²).  It calls
# the same lattice and belief functions as dsm-rules with few large
# propositions where dsm-rules has many small ones, so a representation
# change that helps one shape and costs the other shows.  The power-set dst
# work of ROADMAP item 3 acts here; the fold does not.
#
# The first two extra axes carry one fixed rule each (p → x, then x → f), so
# the atom sets and the focal elements are the same at every seed; the seed
# draws the weights, which move the answers but not the work.

# extra axes per rung: "2" is a binary axis, "3" a ternary one
DST_LADDER = {16: ("2",), 32: ("2", "2"), 48: ("2", "3"), 64: ("2", "2", "2")}
# One round.  48 atoms three times, so that the op with ten slower ops beyond
# it is a 48-atom op in the upper half of them at any run length from 4 to
# 10 rounds (see DSM_ROUND for why that matters).
DST_ROUND = (16, 32, 48, 48, 48, 64)
# as DSM_ROUNDS
DST_ROUNDS = 40


def dst_scenario(rng, extra_axes: tuple[str, ...]) -> dict:
    e1, e2, e3 = (rng.choice(TP2_GRID) for _ in range(3))
    scenario = tp2_scenario(e1, e2, e3)
    scenario["engines"] = ["dst"]
    axes = scenario["dst_axes"]["axes"]
    mapping = scenario["dst_axes"]["map"]
    carriers = []
    for k, kind in enumerate(extra_axes):
        axis = len(axes)
        if kind == "2":
            axes.append([f"x{k}", f"x{k}_"])
            mapping[f"x{k}"] = [axis, 0]
            scenario["frame"].append(f"x{k}")
            carriers.append(f"x{k}")
        else:
            axes.append([f"y{k}", f"z{k}", f"w{k}"])
            mapping[f"y{k}"] = [axis, 0]
            mapping[f"z{k}"] = [axis, 1]
            scenario["frame"] += [f"y{k}", f"z{k}"]
            scenario["constraints"].append([f"y{k}", f"z{k}"])
            carriers.append(f"y{k}")
    for k, literal in enumerate(carriers[:2]):
        if k == 0:
            rule = {"if": [["p"]], "then": [[literal]]}
        else:
            rule = {"if": [[literal]], "then": [["f"]]}
        rule["weight"] = round(rng.uniform(0.6, 0.95), 4)
        scenario["rules"].append(rule)
    scenario["queries"] += [[[carriers[0]]], [["f"], [carriers[-1]]]]
    return scenario


def dst_atoms(rng) -> list[list[dict]]:
    return [
        [_json_op(dst_scenario(rng, DST_LADDER[atoms]), f"atoms{atoms}") for atoms in DST_ROUND]
        for _ in range(DST_ROUNDS)
    ]


# --------------------------------------------------------------- enumerate
#
# Why: `enumerate --n 5` prints 7580 propositions (about 300 kB).  No other
# workload reaches the enumeration path (mask building, mask-to-terms
# conversion, Proposition materialisation); the streaming and count work of
# ROADMAP item 3 acts here.  The input has no seeded part.

ENUMERATE_N = 5
ENUMERATE_COUNT = 7580


def enumerate_ops(rng) -> list[list[dict]]:
    op = {
        "argv": ["enumerate", "--n", str(ENUMERATE_N)],
        "file": None,
        "expect": {"kind": "enumerate", "count": ENUMERATE_COUNT},
        "size": None,
    }
    return [[op]]


WORKLOADS = {
    "tp2-sweep": tp2_sweep,
    "dsm-rules": dsm_rules,
    "dst-atoms": dst_atoms,
    "enumerate": enumerate_ops,
}
