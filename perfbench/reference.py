"""Independent answers for the benchmark's scenarios, and the output checker.

Nothing here imports hyperbelief.  The dsm answers use region semantics in
the style of tests/oracle.py: a region is a non-empty set of singleton
indices that contains no declared-empty set, a proposition covers the
regions that contain one of its terms, and a focal element is the int
bitmask of the regions it covers.  Each focal element's region set is
computed once, so the 2^R product is a loop of integer ANDs.  The dst answers
use plain atom sets on the refined frame (an int bitmask over atoms) and
Dempster's rule.  Both are compared with the suite's 1e-9 tolerance.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import product
from math import fsum, prod

TOL = 1e-9
TOTAL_CONFLICT_EPS = 1e-12


# ------------------------------------------------------------ region semantics


class RegionSpace:
    """The surviving regions of a frame under its declared-empty sets."""

    def __init__(self, frame: list[str], constraints: list[list[str]]):
        self.index = {name: i for i, name in enumerate(frame)}
        empty = [self._bits(group) for group in constraints]
        n = len(frame)
        self.regions = [
            s for s in range(1, 1 << n) if not any(c & s == c for c in empty)
        ]
        self.ignorance = (1 << len(self.regions)) - 1
        self._cache: dict[str, int] = {}

    def _bits(self, names) -> int:
        return sum(1 << self.index[name] for name in set(names))

    def sem(self, nested: list[list[str]]) -> int:
        key = json.dumps(nested)
        if key not in self._cache:
            terms = [self._bits(term) for term in nested]
            self._cache[key] = sum(
                1 << r
                for r, s in enumerate(self.regions)
                if any(t & s == t for t in terms)
            )
        return self._cache[key]


def region_semantics(frame, constraints, nested) -> int:
    return RegionSpace(frame, constraints).sem(nested)


def _rule_masses(antecedent: int, both: int, weight: float) -> dict[int, float]:
    masses: dict[int, list[float]] = {}
    if weight > 0.0:
        masses.setdefault(both, []).append(weight)
    if weight < 1.0:
        masses.setdefault(antecedent, []).append(1.0 - weight)
    return {k: fsum(v) for k, v in masses.items()}


def focal_count(frame, constraints, rule) -> int:
    """Focal elements of the rule's BBA; 0 if the model makes it impossible."""
    space = RegionSpace(frame, constraints)
    antecedent = space.sem(rule["if"])
    both = antecedent & space.sem(rule["then"])
    if not antecedent or not both:
        return 0
    return len(_rule_masses(antecedent, both, rule["weight"]))


def _hybrid(sources: list[dict[int, float]], ignorance: int) -> tuple[dict[int, float], float]:
    contributions: dict[int, list[float]] = {}
    rerouted = []
    for combo in product(*[list(s.items()) for s in sources]):
        pi = prod(m for _, m in combo)
        meet = ignorance
        for focal, _ in combo:
            meet &= focal
        if not meet:
            rerouted.append(pi)
            join = 0
            for focal, _ in combo:
                join |= focal
            meet = join or ignorance
        contributions.setdefault(meet, []).append(pi)
    return {k: fsum(v) for k, v in contributions.items()}, fsum(rerouted)


def _bel_pl(masses: dict[int, float], query: int) -> tuple[float, float]:
    bel = fsum(m for x, m in masses.items() if x and x & ~query == 0)
    pl = fsum(m for x, m in masses.items() if x & query)
    return bel, pl


def dsm_reference(scenario: dict) -> dict:
    """Hybrid DSm answers: all rules in one pass, then each observation."""
    space = RegionSpace(scenario["frame"], scenario.get("constraints", []))
    sources = []
    for rule in scenario["rules"]:
        antecedent = space.sem(rule["if"])
        sources.append(_rule_masses(antecedent, antecedent & space.sem(rule["then"]), rule["weight"]))
    if len(sources) >= 2:
        fused, conflict = _hybrid(sources, space.ignorance)
        stages = [conflict]
    else:
        fused = sources[0] if sources else {space.ignorance: 1.0}
        stages = [0.0]
    for obs in scenario.get("observations", []):
        fused, conflict = _hybrid([fused, {space.sem(obs): 1.0}], space.ignorance)
        stages.append(conflict)
    return {
        "status": "ok",
        "conflict": max(stages),
        "fused": fused,
        "key": space.sem,
        "rows": [_bel_pl(fused, space.sem(q)) for q in scenario["queries"]],
    }


# ----------------------------------------------------------------- atom sets


class AtomSpace:
    """Atoms of a dst_axes declaration, in mixed-radix order."""

    def __init__(self, dst_axes: dict):
        self.axes = dst_axes["axes"]
        self.literals = {name: tuple(c) for name, c in dst_axes["map"].items()}
        self.atoms = list(product(*[range(len(axis)) for axis in self.axes]))
        self.names = {
            "∩".join(axis[v] for axis, v in zip(self.axes, values)): i
            for i, values in enumerate(self.atoms)
        }

    def refine(self, nested: list[list[str]]) -> int:
        mask = 0
        for term in nested:
            pins: dict[int, int] = {}
            if any(pins.setdefault(*self.literals[name]) != self.literals[name][1] for name in term):
                continue
            mask |= sum(
                1 << i
                for i, values in enumerate(self.atoms)
                if all(values[a] == v for a, v in pins.items())
            )
        return mask

    def atom_key(self, nested: list[list[str]]) -> int:
        """Mask of a fused focal element, whose terms are atom-name singletons."""
        return sum(1 << self.names[term[0]] for term in nested)


def dst_reference(scenario: dict) -> dict:
    """Dempster's rule over every rule and observation on the atom frame."""
    space = AtomSpace(scenario["dst_axes"])
    sources = []
    for rule in scenario["rules"]:
        antecedent = space.refine(rule["if"])
        sources.append(_rule_masses(antecedent, antecedent & space.refine(rule["then"]), rule["weight"]))
    sources += [{space.refine(obs): 1.0} for obs in scenario.get("observations", [])]
    contributions: dict[int, list[float]] = {}
    for combo in product(*[list(s.items()) for s in sources]):
        meet = (1 << len(space.atoms)) - 1
        for focal, _ in combo:
            meet &= focal
        contributions.setdefault(meet, []).append(prod(m for _, m in combo))
    conflict = fsum(contributions.pop(0, [0.0]))
    k = 1.0 - conflict
    if k <= TOTAL_CONFLICT_EPS:
        rows = [(None, None)] * len(scenario["queries"])
        return {"status": "inconsistent", "conflict": 1.0, "k": None, "rows": rows}
    fused = {x: fsum(v) / k for x, v in contributions.items()}
    return {
        "status": "ok",
        "conflict": conflict,
        "k": k,
        "fused": fused,
        "key": space.atom_key,
        "rows": [_bel_pl(fused, space.refine(q)) for q in scenario["queries"]],
    }


def bayes_reference(eps) -> dict:
    e1, e2, e3 = (Fraction(e) for e in eps)
    p_fly = e1 * (1 - e2) / (1 - e3)
    p_not_fly = (1 - e1) * e2 / (1 - e3)
    return {"status": "ok", "rows": [(float(p_fly),) * 2, (float(p_not_fly),) * 2]}


# ------------------------------------------------------------ output parsing


def _num(cell: str):
    return None if cell == "" else float(cell)


def _columns(lines: list[str]) -> list[list[str]]:
    header = lines[0]
    starts = [0] + [i + 2 for i in range(len(header) - 2) if header[i:i + 2] == "  " and header[i + 2] != " "]
    return [
        [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        for line in lines[1:]
    ]


def parse_report(text: str, fmt: str) -> dict:
    """engine -> {status, conflict, k, rows [(bel, pl)], fused} from any format."""
    engines: dict[str, dict] = {}
    if fmt == "json":
        for result in json.loads(text)["results"]:
            engines[result["engine"]] = {
                "status": result["status"],
                "conflict": result["conflict_mass"],
                "k": result["normalization_constant"],
                "rows": [
                    (q["estimate"], q["estimate"]) if q["estimate"] is not None else (q["bel"], q["pl"])
                    for q in result["queries"]
                ],
                "fused": None if result["fused"] is None else result["fused"]["masses"],
            }
        return engines
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        summary, queries = text.rstrip("\n").split("\n\n")
        summary_lines = [line for line in summary.split("\n") if " estimates: " not in line]
        for engine, status, conflict, k, _ in _columns(summary_lines):
            engines[engine] = {"status": status, "conflict": _num(conflict), "k": _num(k)}
        rows = _columns(queries.split("\n"))
    for engine, _, bel, pl, _ in rows:
        engines.setdefault(engine, {}).setdefault("rows", []).append((_num(bel), _num(pl)))
    return engines


# ------------------------------------------------------------------- checker


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= TOL


def _compare(engine: str, got: dict, want: dict) -> str | None:
    if "status" in got and got["status"] != want["status"]:
        return f"{engine}: status {got['status']!r}, want {want['status']!r}"
    if len(got.get("rows", [])) != len(want["rows"]):
        return f"{engine}: {len(got.get('rows', []))} query rows, want {len(want['rows'])}"
    for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        if not all(_close(a, b) for a, b in zip(g, w)):
            return f"{engine}: query {i} gave {g}, want {w}"
    for field in ("conflict", "k"):
        if field in got and not _close(got[field], want.get(field)):
            return f"{engine}: {field} {got[field]!r}, want {want.get(field)!r}"
    if got.get("fused") is not None:
        masses: dict[int, float] = {}
        for entry in got["fused"]:
            key = want["key"](entry["prop"])
            masses[key] = masses.get(key, 0.0) + entry["mass"]
        for key in set(masses) | set(want["fused"]):
            if not _close(masses.get(key, 0.0), want["fused"].get(key, 0.0)):
                return f"{engine}: fused mass differs from the reference"
    return None


class Checker:
    """Judges one op's (exit code, stdout, stderr) against its expectation."""

    def __init__(self):
        self._references: dict[str, dict] = {}

    def references(self, op: dict) -> dict:
        """engine -> expected answer, computed once per scenario file."""
        key = op["file"]
        if key not in self._references:
            scenario = json.loads(key)
            refs = {}
            for engine in scenario["engines"]:
                if engine == "bayes":
                    refs[engine] = bayes_reference(op["expect"]["eps"])
                else:
                    refs[engine] = (dsm_reference if engine == "dsm" else dst_reference)(scenario)
            self._references[key] = refs
        return self._references[key]

    def check(self, op: dict, code: int, out: str, err: str, refs: dict | None = None) -> str | None:
        """None if the answer is right, else the reason it is wrong."""
        kind = op["expect"]["kind"]
        if kind == "refused":
            if code != 2 or out or not err.startswith("error:"):
                return f"want exit 2 and an error line, got exit {code}"
            field = op["expect"].get("field")
            if field and field not in err:
                return f"error does not name {field}: {err.strip()}"
            return None
        if kind == "enumerate":
            lines = out.split("\n")
            count = op["expect"]["count"]
            if code != 0 or lines[-2:] != [f"total {count}", ""]:
                return f"want exit 0 and 'total {count}', got exit {code}"
            if len(set(lines[:-2])) != count or len(lines) != count + 2:
                return f"want {count} distinct lines, got {len(set(lines[:-2]))}"
            return None
        refs = self.references(op) if refs is None else refs
        want_code = 3 if any(r["status"] == "inconsistent" for r in refs.values()) else 0
        if code != want_code:
            return f"exit {code}, want {want_code}: {err.strip()[-200:]}"
        try:
            got = parse_report(out, op["expect"]["fmt"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable {op['expect']['fmt']} report: {exc!r}"
        if list(got) != list(refs):
            return f"engines {list(got)}, want {list(refs)}"
        for engine, want in refs.items():
            problem = _compare(engine, got[engine], want)
            if problem:
                return problem
        return None


def perturbed(refs: dict) -> dict:
    """A copy of the references with one query answer moved by 1e-6."""
    engine = next(e for e, r in refs.items() if r["status"] == "ok")
    rows = list(refs[engine]["rows"])
    bel, pl = rows[0]
    rows[0] = (bel + 1e-6, pl)
    return {**refs, engine: {**refs[engine], "rows": rows}}
