"""Command-line front end.

Problems are JSON files describing a ring presentation, named ideals, a
task, and options; reports are JSON (default) or a plain-text table.  Exit
codes: 0 success, 1 input error, 2 mathematical error (not a reduction,
no Ratliff-Rush certificate or one beyond rr_j_cap, degree cap, failed
depth probe).
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import OrderedDict

from . import __version__
from . import corpus as corpus_pkg
from .fullness import GenericElementPolicy, PredicateResult
from .groebner import DEFAULT_DEGREE_CAP, DegreeCapExceeded
from .idealcalc import (
    IdealHandle,
    IdealcalcError,
    QuotientRing,
    ideal_colon,
)
from .invariants import (
    DEFAULT_RR_JCAP,
    DaoReport,
    InvariantError,
    dao_numbers,
    ratliff_rush_power,
    reduction_number,
    verify_statements,
)
from .polyring import ParseError, PolyRing, PolyringError, PrimeField, QQ

SCHEMA_VERSION = 1
TASKS = ("gb", "colon", "rr", "rednum", "dao", "verify")
# Integer options and their least meaningful values (None: any integer); a
# smaller value is an input error, not a failed computation.  Any other key
# but these, the typed ones and `task` is an input error too.
INT_OPTIONS = {
    "trials": 1, "seed": None, "rr_j_cap": 1, "s_bound": 1, "max_iter": 0,
    "known_reg": 0, "degree_cap": 1, "rr_n": 1, "assert_dim": None,
}
TYPED_OPTIONS = {"assert_minimal": bool, "ideal": str, "colon_a": str, "colon_b": str}
DEFAULT_TIME_BUDGET = 1800.0
# Rings of the most recent presentations served in this process, keyed by
# the canonical ring spec and the degree cap, least recently used first;
# each ring's memo keeps its ring-level results from request to request.
# It lives in the module because `run(problem)` is the whole interface a
# long-lived caller has.
RING_TABLE_CAP = 8
_RING_TABLE: "OrderedDict[tuple, QuotientRing]" = OrderedDict()


class InputError(Exception):
    """Malformed problem file or arguments (CLI exit code 1)."""


class TimeBudgetExceeded(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise InputError(message)


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read problem file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"problem file is not valid JSON: {e}") from None
    validate_problem(problem)
    return problem


def validate_problem(problem: dict):
    _require(isinstance(problem, dict), "problem must be a JSON object")
    ring = problem.get("ring")
    _require(isinstance(ring, dict), "missing 'ring' object")
    _require(
        _string_list(ring.get("variables")) and ring["variables"],
        "ring.variables must be a nonempty list of strings",
    )
    char = ring.get("characteristic", 32003)
    _require(
        isinstance(char, int) and not isinstance(char, bool) and char >= 0,
        "ring.characteristic must be 0 or a prime",
    )
    _require(
        _string_list(ring.get("relations", [])),
        "ring.relations must be a list of polynomial strings",
    )
    ideals = problem.get("ideals", {})
    _require(isinstance(ideals, dict), "'ideals' must map names to generator lists")
    for name, gens in ideals.items():
        _require(name != "m", "the name 'm' is reserved for the maximal ideal")
        _require(_string_list(gens), f"ideal {name!r} must be a list of polynomial strings")
    task = problem.get("task")
    if task is not None:
        _require(task in TASKS, f"unknown task {task!r}; expected one of {TASKS}")
    _validate_options(problem.get("options", {}))


def _string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _validate_options(options: dict):
    _require(isinstance(options, dict), "'options' must be an object")
    unknown = options.keys() - INT_OPTIONS.keys() - TYPED_OPTIONS.keys() - {"task"}
    _require(not unknown, f"unknown options {sorted(unknown)}")
    for key, least in INT_OPTIONS.items():
        if key in options:
            value = options[key]
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"options.{key} must be an integer, got {value!r}",
            )
            _require(
                least is None or value >= least,
                f"options.{key} must be at least {least}, got {value!r}",
            )
    for key, kind in TYPED_OPTIONS.items():
        if key in options:
            _require(
                isinstance(options[key], kind),
                f"options.{key} must be a {kind.__name__}, got {options[key]!r}",
            )


def build_ring(problem: dict, degree_cap: int = DEFAULT_DEGREE_CAP) -> QuotientRing:
    """The ring of the problem's presentation, reused from the ring table
    when the same presentation and degree cap were served recently."""
    spec = problem["ring"]
    key = (json.dumps(spec, sort_keys=True), degree_cap)
    ring = _RING_TABLE.get(key)
    if ring is not None:
        _RING_TABLE.move_to_end(key)
        return ring
    char = spec.get("characteristic", 32003)
    field = QQ if char == 0 else PrimeField(char)
    ambient = PolyRing(spec["variables"], field)
    try:
        relations = [ambient.parse(s) for s in spec.get("relations", [])]
        ring = QuotientRing(ambient, relations, degree_cap)
    except (ParseError, IdealcalcError) as e:
        # malformed presentations are input errors, not engine failures
        raise InputError(f"bad ring presentation: {e}") from None
    _RING_TABLE[key] = ring
    if len(_RING_TABLE) > RING_TABLE_CAP:
        _RING_TABLE.popitem(last=False)
    return ring


def _resolve_ideal(name: str, ring: QuotientRing, ideals: dict, problem: dict) -> IdealHandle:
    if name == "m":
        return ring.maximal_ideal()
    if name not in problem.get("ideals", {}):
        raise InputError(f"ideal {name!r} is not defined in the problem file")
    if name not in ideals:
        try:
            ideals[name] = ring.parse_ideal(problem["ideals"][name])
        except ParseError as e:
            raise InputError(f"bad generator in ideal {name!r}: {e}") from None
    return ideals[name]


def _predicate_dict(p: PredicateResult) -> dict:
    return {
        "value": p.value,
        "certified": p.certified,
        "witness": str(p.witness) if p.witness is not None else None,
        "trials_used": p.trials_used,
    }


def _dao_dict(report: DaoReport) -> dict:
    return {
        "r": report.r,
        "s": report.s,
        "s_certified_up_to": report.s_certified_up_to,
        "alpha": report.alpha,
        "n1": report.n1,
        "n2": report.n2,
        "n3": report.n3,
        "n2_certified": report.n2_certified,
        "predicate_table": [
            {
                "n": row.n,
                "m_full": _predicate_dict(row.m_full),
                "full": _predicate_dict(row.full),
                "weakly_m_full": _predicate_dict(row.weakly_m_full),
            }
            for row in report.predicate_table
        ],
        "flags": report.flags,
        "reg_G_upper": report.reg_G_upper,
        "reg_bound": report.reg_bound,
        "reg_bound_consistent": report.reg_bound_consistent,
    }


def _check_expected(expected: dict, results: dict) -> tuple[bool, dict]:
    diffs = {}
    for key, want in expected.items():
        got = results.get(key)
        if got != want:
            diffs[key] = {"expected": want, "got": got}
    return (not diffs), diffs


def run(problem: dict, overrides: dict | None = None) -> dict:
    """Execute one problem and assemble its report."""
    validate_problem(problem)
    overrides = overrides or {}
    options = dict(problem.get("options", {}))
    options.update({k: v for k, v in overrides.items() if v is not None})
    _validate_options(options)
    task = overrides.get("task") or problem.get("task")
    _require(task in TASKS, "no task given (in the problem file or on the command line)")

    canonical = json.dumps(problem, sort_keys=True, separators=(",", ":"))
    input_hash = hashlib.sha256(canonical.encode()).hexdigest()

    ring = build_ring(problem, options.get("degree_cap", DEFAULT_DEGREE_CAP))
    ring.start_request()
    handles: dict[str, IdealHandle] = {}
    policy = GenericElementPolicy(**_given(options, "trials", "seed"))
    started = time.monotonic()
    results = _dispatch(task, options, ring, handles, problem, policy)

    report_obj = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "fullness-lab", "version": __version__},
        "task": task,
        "name": problem.get("name"),
        "input_sha256": input_hash,
        "presentation": "algebraic-local",
        "options": {k: options[k] for k in sorted(options)},
        "results": results,
    }
    expected = problem.get("expected")
    if expected:
        ok, diffs = _check_expected(expected, results)
        report_obj["expected_match"] = ok
        if not ok:
            report_obj["expected_diffs"] = diffs
    report_obj["timing_ms"] = int((time.monotonic() - started) * 1000)
    return report_obj


def _given(options: dict, *names: str) -> dict:
    """The named options the request sets; the rest keep library defaults."""
    return {name: options[name] for name in names if name in options}


def _dispatch(
    task: str,
    options: dict,
    ring: QuotientRing,
    handles: dict,
    problem: dict,
    policy: GenericElementPolicy,
) -> dict:
    if task == "gb":
        ideal = _resolve_ideal(options.get("ideal", "I"), ring, handles, problem)
        return {
            "ideal": options.get("ideal", "I"),
            "basis": [str(g) for g in ideal.gb.basis],
            "reduced": True,
        }
    if task == "colon":
        a = _resolve_ideal(options.get("colon_a", "A"), ring, handles, problem)
        b = _resolve_ideal(options.get("colon_b", "B"), ring, handles, problem)
        colon = ideal_colon(a, b)
        return {
            "a": options.get("colon_a", "A"),
            "b": options.get("colon_b", "B"),
            "generators": [str(g) for g in colon.gb.basis],
        }
    if task == "rr":
        n = options.get("rr_n")
        _require(isinstance(n, int) and n >= 1, "options.rr_n must be a positive integer")
        record = ratliff_rush_power(ring, n, options.get("rr_j_cap", DEFAULT_RR_JCAP))
        return {
            "n": n,
            "certificate_j": record.j,
            "stable_value_generators": [str(g) for g in record.stable_value.gb.basis],
            "equals_power": record.j == 0,
            "certified": True,
        }
    if task == "rednum":
        ideal = _resolve_ideal(options.get("ideal", "I"), ring, handles, problem)
        cert = reduction_number(ideal, **_given(options, "max_iter"))
        return {
            "ideal": options.get("ideal", "I"),
            "r": cert.r,
            "checked_up_to": cert.checked_up_to,
        }
    # dao and verify
    ideal = _resolve_ideal(options.get("ideal", "I"), ring, handles, problem)
    dao_kwargs = _given(options, "max_iter", "rr_j_cap", "s_bound", "known_reg")
    if task == "dao":
        return _dao_dict(dao_numbers(ideal, policy, **dao_kwargs))
    report, checks = verify_statements(
        ring, ideal, policy, **_given(options, "assert_dim", "assert_minimal"), **dao_kwargs
    )
    results = _dao_dict(report)
    results["checks"] = [
        {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
    ]
    return results


def corpus_list() -> list[dict]:
    """Stable listing of the bundled problem files."""
    return corpus_pkg.listing()


def _format_table(report: dict) -> str:
    lines = []
    lines.append(f"task            {report['task']}")
    if report.get("name"):
        lines.append(f"problem         {report['name']}")
    lines.append(f"input sha256    {report['input_sha256']}")
    lines.append(f"presentation    {report['presentation']}")
    results = report.get("results", {})
    for key, value in results.items():
        if key == "predicate_table":
            lines.append("predicate table (n: m-full / full / weakly-m-full):")
            for row in value:
                mark = lambda d: ("yes" if d["value"] else "no") + (
                    "" if d["certified"] else "?"
                )
                lines.append(
                    f"    n={row['n']}: {mark(row['m_full'])} / {mark(row['full'])}"
                    f" / {mark(row['weakly_m_full'])}"
                )
        elif key == "checks":
            lines.append("statement checks:")
            for c in value:
                lines.append(f"    {c['name']:42s} {c['status']:24s} {c['detail']}")
        elif isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"    {item}")
        else:
            lines.append(f"{key:15s} {value}")
    if "expected_match" in report:
        lines.append(f"expected match  {report['expected_match']}")
        for key, diff in report.get("expected_diffs", {}).items():
            lines.append(f"    {key}: expected {diff['expected']}, got {diff['got']}")
    lines.append(f"timing          {report['timing_ms']} ms")
    return "\n".join(lines)


def _emit(report: dict, as_table: bool):
    if as_table:
        print(_format_table(report))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _alarm_handler(signum, frame):
    raise TimeBudgetExceeded


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, not at the top: `run` never needs them
    import signal

    parser = argparse.ArgumentParser(
        prog="fullness-lab",
        description="Asymptotic fullness invariants of ideals in local rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus_parser = sub.add_parser("corpus", help="list bundled problem files")
    corpus_parser.add_argument("--json", action="store_true", dest="as_json")

    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--s-bound", type=int, dest="s_bound")
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument("--known-reg", type=int, dest="known_reg")
        p.add_argument("--slow", action="store_true", help="allow slow-marked problems")
        p.add_argument(
            "--time-budget",
            type=float,
            default=DEFAULT_TIME_BUDGET,
            help="wall-clock budget in seconds for slow problems",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", dest="as_json", default=True)
        group.add_argument("--table", action="store_false", dest="as_json")

    args = parser.parse_args(argv)

    if args.command == "corpus":
        listing = corpus_list()
        if getattr(args, "as_json", False):
            print(json.dumps(listing, sort_keys=True, indent=2))
        else:
            for entry in listing:
                slow = "  [slow]" if entry["slow"] else ""
                print(f"{entry['name']:24s} task={entry['task']:7s} {entry['path']}{slow}")
        return 0

    try:
        problem = load_problem(args.input)
        overrides = {
            "task": args.command,
            "seed": args.seed,
            "trials": args.trials,
            "s_bound": args.s_bound,
            "max_iter": args.max_iter,
            "known_reg": args.known_reg,
        }
        if problem.get("slow") and not args.slow:
            report = {
                "schema_version": SCHEMA_VERSION,
                "task": args.command,
                "name": problem.get("name"),
                "status": "SKIPPED-SLOW",
                "detail": "problem is marked slow; re-run with --slow",
            }
            _emit(report, not args.as_json)
            return 0
        if problem.get("slow"):
            signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, args.time_budget)
        try:
            report = run(problem, overrides)
        finally:
            if problem.get("slow"):
                signal.setitimer(signal.ITIMER_REAL, 0)
        _emit(report, not args.as_json)
        return 0
    except TimeBudgetExceeded:
        report = {
            "schema_version": SCHEMA_VERSION,
            "task": args.command,
            "status": "SKIPPED-SLOW",
            "detail": f"time budget of {args.time_budget}s exceeded",
        }
        _emit(report, not args.as_json)
        return 0
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except (InvariantError, DegreeCapExceeded, IdealcalcError) as e:
        print(f"mathematical error: {e}", file=sys.stderr)
        return 2
    except PolyringError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
