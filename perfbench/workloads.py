"""Seeded request generation and answer checks for the three workloads.

A workload is a warm-up list (served before timing starts, checked but not
timed) and a cycle: a fixed multiset of request shapes whose values and
order come from the seed.  Cycle j of seed s is generated from its own
random stream, so the same (workload, seed, j) always yields byte-identical
problem dicts.  The program only ever sees the generated dicts.
"""
from __future__ import annotations

import copy
import json
import os
import random
from fractions import Fraction

FP = 32003
HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "qq_reference.json"), encoding="utf-8") as _fh:
    QQ_REFERENCE = json.load(_fh)


def _rng(workload: str, seed: int, label: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


def _signed_sum(terms: list[tuple[object, str]]) -> str:
    """Polynomial string for sum(c * t), written with explicit signs."""
    out = []
    for c, t in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = t if mag == 1 and t != "1" else (str(mag) if t == "1" else f"{mag}*{t}")
        out.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _small_rational(rng: random.Random) -> Fraction:
    num = rng.choice([1, 2, 3, 4, 5, 7])
    den = rng.choice([1, 1, 2, 3, 4, 5])
    return Fraction(num * rng.choice([1, -1]), den)


def _request(kind: str, problem: dict, expect: dict) -> dict:
    return {"kind": kind, "problem": problem, "expect": expect}


# --------------------------------------------------------------------------
# corpus-cold: bundled problems, one fresh process per request


class CorpusCold:
    name = "corpus-cold"
    long_lived = False
    # (bundled problem, task); the two heaviest shapes come twice, so that
    # a run holds more than ten of them and the tail falls inside their
    # cluster even when a busy host leaves time for only three cycles
    SHAPES = (
        ("regular_2d", "dao"),
        ("regular_2d", "verify"),
        ("example_4_2_L", "dao"),
        ("example_4_2_L", "verify"),
        ("example_4_2_L", "verify"),
        ("example_4_2_I", "dao"),
        ("example_4_2_I", "dao"),
    )

    def __init__(self, corpus):
        self.corpus = corpus

    def warmup(self, seed: int) -> list[dict]:
        return []

    def cycle(self, seed: int, j: int) -> list[dict]:
        rng = _rng(self.name, seed, f"cycle{j}")
        out = []
        for name, task in self.SHAPES:
            problem = self.corpus.load(name)
            problem["task"] = task
            problem.setdefault("options", {})["seed"] = rng.randrange(1 << 31)
            out.append(_request(f"{name}:{task}", problem, {"expected": problem["expected"]}))
        rng.shuffle(out)
        return out

    @staticmethod
    def check(req: dict, report: dict) -> str | None:
        results = report.get("results", {})
        for key, want in req["expect"]["expected"].items():
            if results.get(key) != want:
                return f"{key}: expected {want}, got {results.get(key)}"
        if report.get("expected_match") is not True:
            return "report does not match its embedded expected values"
        bad = [c["name"] for c in results.get("checks", []) if c.get("status") == "VIOLATION"]
        if bad:
            return f"statement checks violated: {bad}"
        return None


# --------------------------------------------------------------------------
# dense-ideals: one long-lived process, seeded dense linear forms over F_p


class DenseIdeals:
    name = "dense-ideals"
    long_lived = True
    # ring -> {generator count: (r, s, n1, n2, n3)}
    EXPECTED = {
        "example_4_2": {2: (1, 3, 2, 0, 2)},
        "example_4_1": {2: (1, 1, 1, 0, 1)},
    }
    # one example_4_1 request (about 15 times the cost of an example_4_2
    # one) per eight, so a run holds several of each
    SHAPES = (("example_4_2", 2),) * 8 + (("example_4_1", 2),)
    WARMUP = (("example_4_2", 2),)

    def __init__(self, corpus):
        self.corpus = corpus
        self.rings = {
            "example_4_2": corpus.load("example_4_2_I")["ring"],
            "example_4_1": corpus.load("example_4_1")["ring"],
        }

    def _problem(self, rng: random.Random, ring_name: str, ngens: int) -> dict:
        ring = self.rings[ring_name]
        gens = [
            _signed_sum([(rng.randrange(1, FP), v) for v in ring["variables"]])
            for _ in range(ngens)
        ]
        problem = {
            "name": f"dense_{ring_name}_{ngens}",
            "ring": copy.deepcopy(ring),
            "ideals": {"I": gens},
            "task": "dao",
            "options": {"ideal": "I", "seed": rng.randrange(1 << 31), "trials": 5},
        }
        want = self.EXPECTED[ring_name][ngens]
        return _request(f"{ring_name}:{ngens}gen", problem, {"rsn": list(want)})

    def warmup(self, seed: int) -> list[dict]:
        """Fill the ring-level caches: one dense request on example_4_2 and
        the bundled (sparse, cheaper) ideal on example_4_1."""
        rng = _rng(self.name, seed, "warmup")
        out = [self._problem(rng, r, k) for r, k in self.WARMUP]
        bundled = self.corpus.load("example_4_1")
        bundled["options"]["seed"] = rng.randrange(1 << 31)
        want = [bundled["expected"][k] for k in ("r", "s", "n1", "n2", "n3")]
        return out + [_request("example_4_1:bundled", bundled, {"rsn": want})]

    def cycle(self, seed: int, j: int) -> list[dict]:
        rng = _rng(self.name, seed, f"cycle{j}")
        out = [self._problem(rng, r, k) for r, k in self.SHAPES]
        rng.shuffle(out)
        return out

    @staticmethod
    def check(req: dict, report: dict) -> str | None:
        res = report.get("results", {})
        got = [res.get(k) for k in ("r", "s", "n1", "n2", "n3")]
        if got != req["expect"]["rsn"]:
            return f"(r, s, n1, n2, n3): expected {req['expect']['rsn']}, got {got}"
        r, s = got[0], got[1]
        if not (res["n1"] == res["n3"] == max(r, s - 1)):
            return "n1 == n3 == max(r, s - 1) does not hold"
        if res.get("flags", {}).get("alpha_validated") is not True:
            return "alpha not validated"
        return None


# --------------------------------------------------------------------------
# qq-kernels: one long-lived process, characteristic-zero problems


def _qq(problem: dict) -> dict:
    problem = copy.deepcopy(problem)
    problem["ring"]["characteristic"] = 0
    return problem


def _unimodular(rng: random.Random, gens: list[str], variables: list[str]) -> list[str]:
    """Generators of the same ideal: g_i -> c_i g_i + sum_{j<i} a_ij v_ij g_j
    (triangular with nonzero diagonal, so invertible), then shuffled."""
    out = []
    for i, g in enumerate(gens):
        terms = [f"{_small_rational(rng)}*({g})"]
        for j in range(i):
            if rng.random() < 0.5:
                mult = rng.choice(["1"] + variables)
                terms.append(f"{_small_rational(rng)}*{mult}*({gens[j]})")
        out.append(" + ".join(terms).replace("+ -", "- "))
    rng.shuffle(out)
    return out


class QQKernels:
    name = "qq-kernels"
    long_lived = True
    DAO = ("regular_2d", "example_4_2_I", "example_4_2_L")

    def __init__(self, corpus):
        self.dao_problems = {n: _qq(corpus.load(n)) for n in self.DAO}
        self.ring42 = QQ_REFERENCE["rr_ring"]

    def warmup(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed, "warmup")
        out = [self._dao(rng, n) for n in ("regular_2d", "example_4_2_L")]
        return out + [self._rr(3)]

    def _dao(self, rng: random.Random, name: str) -> dict:
        problem = copy.deepcopy(self.dao_problems[name])
        problem["options"]["seed"] = rng.randrange(1 << 31)
        return _request(f"dao:{name}", problem, {"expected": problem["expected"]})

    def _rr(self, n: int) -> dict:
        problem = {"name": f"rr_{n}", "ring": copy.deepcopy(self.ring42), "task": "rr",
                   "options": {"rr_n": n}}
        return _request(f"rr:{n}", problem, {"rr": QQ_REFERENCE["rr"][str(n)]})

    def _rednum(self, rng: random.Random, ngens: int) -> dict:
        if ngens == 1:
            gens = [_signed_sum([(1, "x"), (_small_rational(rng), "y")])]
            r = 3
        else:
            gens = [_signed_sum([(1, "x"), (_small_rational(rng), "z")]),
                    _signed_sum([(1, "y"), (_small_rational(rng), "z")])]
            r = 1
        problem = {"name": f"rednum_{ngens}", "ring": copy.deepcopy(self.ring42),
                   "ideals": {"I": gens}, "task": "rednum", "options": {"ideal": "I"}}
        return _request(f"rednum:{ngens}gen", problem, {"r": r})

    def _gb(self, rng: random.Random, base: str) -> dict:
        entry = QQ_REFERENCE["bases"][base]
        ring = QQ_REFERENCE["ring"]
        gens = _unimodular(rng, entry["generators"], ring["variables"])
        problem = {"name": f"gb_{base}", "ring": copy.deepcopy(ring), "ideals": {"I": gens},
                   "task": "gb", "options": {"ideal": "I"}}
        return _request(f"gb:{base}", problem, {"basis": entry["gb"]})

    def _colon(self, rng: random.Random, base: str, divisor: str) -> dict:
        entry = QQ_REFERENCE["bases"][base]
        ring = QQ_REFERENCE["ring"]
        gens = _unimodular(rng, entry["generators"], ring["variables"])
        ref = entry["colon"][divisor]
        problem = {"name": f"colon_{base}_{divisor}", "ring": copy.deepcopy(ring),
                   "ideals": {"A": gens, "B": list(ref["divisor"])}, "task": "colon",
                   "options": {"colon_a": "A", "colon_b": "B"}}
        return _request(f"colon:{base}:{divisor}", problem, {"basis": ref["basis"]})

    def cycle(self, seed: int, j: int) -> list[dict]:
        rng = _rng(self.name, seed, f"cycle{j}")
        # the principal example_4_2_I request is the heaviest shape; three
        # per cycle keep more than ten of it in a run, so the tail falls
        # inside its cluster even when a busy host allows only four cycles
        out = [self._dao(rng, n) for n in self.DAO + ("example_4_2_I",) * 2]
        out += [self._rr(n) for n in (1, 2, 3)]
        out += [self._rednum(rng, 1), self._rednum(rng, 2)]
        out += [self._gb(rng, b) for b in QQ_REFERENCE["bases"]]
        out += [self._colon(rng, b, d) for b in QQ_REFERENCE["bases"]
                for d in QQ_REFERENCE["bases"][b]["colon"]]
        rng.shuffle(out)
        return out

    @staticmethod
    def check(req: dict, report: dict) -> str | None:
        res = report.get("results", {})
        expect = req["expect"]
        kind = req["kind"].split(":")[0]
        if kind == "dao":
            for key, want in expect["expected"].items():
                if res.get(key) != want:
                    return f"{key}: expected {want}, got {res.get(key)}"
            return None
        if kind == "rednum":
            return None if res.get("r") == expect["r"] else f"r: expected {expect['r']}, got {res.get('r')}"
        ring = req["problem"]["ring"]
        if kind == "rr":
            if res.get("equals_power") != expect["rr"]["equals_power"]:
                return "equals_power differs from the reference"
            got, want = res.get("stable_value_generators"), expect["rr"]["stable_value"]
        else:
            got = res.get("basis" if kind == "gb" else "generators")
            want = expect["basis"]
        if not isinstance(got, list) or not _same_basis(ring, got, want):
            return "reduced basis differs from the reference"
        return None


WORKLOADS = {w.name: w for w in (CorpusCold, DenseIdeals, QQKernels)}


def _same_basis(ring: dict, got: list[str], want: list[str]) -> bool:
    """Do two lists of polynomial strings hold the same polynomials?"""
    from fullness_lab.polyring import QQ, PolyRing

    amb = PolyRing(ring["variables"], QQ)
    canon = lambda gens: sorted(sorted(amb.parse(g).as_dict().items()) for g in gens)  # noqa: E731
    return canon(got) == canon(want)


def check_answer(workload, req: dict, report: dict) -> str | None:
    """None if the answer passes the workload's check, else the reason."""
    try:
        return workload.check(req, report)
    except (KeyError, TypeError, AttributeError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
