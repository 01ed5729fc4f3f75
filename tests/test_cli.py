"""End-to-end tests of the command-line interface and the bundled corpus."""

import gc
import importlib.util
import json
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from fullness_lab import cli
from fullness_lab import corpus
from fullness_lab.idealcalc import IdealHandle, QuotientRing
from fullness_lab.polyring import Polynomial


FAST_CORPUS = [e["name"] for e in corpus.listing() if not e["slow"]]


def test_corpus_listing_stable_and_complete():
    first = corpus.listing()
    second = corpus.listing()
    assert first == second
    names = [e["name"] for e in first]
    assert names == [
        "example_4_1",
        "example_4_1_234",
        "example_4_2_I",
        "example_4_2_L",
        "example_4_3",
        "regular_2d",
        "regular_3d_parameter",
    ]
    by_name = {e["name"]: e for e in first}
    assert by_name["example_4_3"]["slow"] is True
    assert by_name["regular_2d"]["expected"]["n1"] == 0
    assert by_name["regular_2d"]["expected"]["n2"] == 0
    assert by_name["regular_2d"]["expected"]["n3"] == 0


@pytest.mark.parametrize("name", FAST_CORPUS)
def test_corpus_problem_runs_and_matches(name):
    problem = corpus.load(name)
    report = cli.run(problem)
    assert report["task"] == problem["task"]
    assert report.get("expected_match", True), report.get("expected_diffs")
    assert report["presentation"] == "algebraic-local"
    assert len(report["input_sha256"]) == 64


def test_parameterized_family_generator():
    problem = corpus.make_example_4_1(2, 3, 4)
    assert "t^5" in problem["ring"]["relations"][0]
    with pytest.raises(ValueError):
        corpus.make_example_4_1(1, 2, 2)


def test_report_determinism():
    problem = corpus.load("regular_2d")
    a = cli.run(problem)
    b = cli.run(problem)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_rednum_task_override():
    problem = corpus.load("example_4_2_I")
    report = cli.run(problem, {"task": "rednum"})
    assert report["results"]["r"] == 3


def test_colon_and_gb_and_rr_tasks():
    problem = {
        "name": "adhoc",
        "ring": {
            "characteristic": 32003,
            "variables": ["x", "y", "z"],
            "relations": ["y^3 - x*z", "x^4 - y*z", "x^3*y^2 - z^2"],
        },
        "ideals": {"A": ["x"], "B": ["x", "y"]},
        "options": {},
    }
    gb = cli.run(problem, {"task": "gb", "ideal": "A"})
    assert "x" in gb["results"]["basis"]
    col = cli.run(dict(problem, options={"colon_a": "A", "colon_b": "m"}), {"task": "colon"})
    assert col["results"]["generators"]
    rr = cli.run(dict(problem, options={"rr_n": 2}), {"task": "rr"})
    assert rr["results"]["equals_power"] is False
    assert sorted(rr["results"]["stable_value_generators"]) == ["x*y", "x^2", "y^2", "z"]
    assert rr["results"]["certified"] is True and rr["results"]["certificate_j"] == 1
    assert not {"window", "stabilized_at", "chain_length"} & rr["results"].keys()


def test_verify_task_emits_checks():
    problem = corpus.load("example_4_2_I")
    report = cli.run(problem, {"task": "verify"})
    names = {c["name"] for c in report["results"]["checks"]}
    assert "full_next_and_weakly_iff_mfull" in names
    statuses = {c["name"]: c["status"] for c in report["results"]["checks"]}
    assert statuses["n2_le_n3_eq_n1"] == "HOLDS"


def test_input_error_paths(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{не json")
    assert cli.main(["dao", "--input", str(bad_json)]) == 1

    # usage errors are input errors too (argparse alone would exit 2, the
    # code of a mathematical error); --help still exits 0
    regular = corpus.path("regular_2d")
    for argv in (["dao", "--input", regular, "--bogus", "1"], ["dao", "--input", regular, "--seed", "abc"], []):
        assert cli.main(argv) == 1, argv
    with pytest.raises(SystemExit) as done:
        cli.main(["dao", "--help"])
    assert done.value.code == 0

    malformed = tmp_path / "malformed.json"
    malformed.write_text(
        json.dumps(
            {
                "name": "broken",
                "ring": {"characteristic": 32003, "variables": ["x"], "relations": ["x +"]},
                "ideals": {"I": ["x"]},
                "task": "gb",
                "options": {"ideal": "I"},
            }
        )
    )
    assert cli.main(["gb", "--input", str(malformed)]) == 1

    constant_relation = tmp_path / "constrel.json"
    constant_relation.write_text(
        json.dumps(
            {
                "ring": {"characteristic": 32003, "variables": ["x", "y"],
                         "relations": ["x*y - 1"]},
                "ideals": {"I": ["x"]},
                "task": "gb",
                "options": {"ideal": "I"},
            }
        )
    )
    assert cli.main(["gb", "--input", str(constant_relation)]) == 1

    missing_ideal = tmp_path / "missing.json"
    missing_ideal.write_text(
        json.dumps(
            {
                "ring": {"characteristic": 32003, "variables": ["x", "y"], "relations": []},
                "ideals": {},
                "task": "dao",
                "options": {"ideal": "I"},
            }
        )
    )
    assert cli.main(["dao", "--input", str(missing_ideal)]) == 1

    # ring entries of the wrong type are input errors, not tracebacks
    base = corpus.load("regular_2d")
    for key, value in [("variables", [1, 2]), ("relations", [5]), ("characteristic", True)]:
        wrong_ring = dict(base, ring={**base["ring"], key: value})
        wrong = tmp_path / f"wrong_ring_{key}.json"
        wrong.write_text(json.dumps(wrong_ring))
        assert cli.main(["dao", "--input", str(wrong)]) == 1, key
        with pytest.raises(cli.InputError):
            cli.run(wrong_ring)

    # options of the wrong type are input errors, not tracebacks
    for option, value in [
        ("trials", "x"),
        ("degree_cap", "abc"),
        ("known_reg", "3"),
        ("known_reg", True),
        ("assert_minimal", "false"),
        ("ideal", ["m"]),
        ("colon_a", ["A"]),
        ("colon_b", 1),
        ("trials", 0),
        ("trials", -3),
        ("degree_cap", 0),
        ("degree_cap", -3),
        ("known_reg", -1),
        # unknown keys, stale ones among them, are refused, not ignored
        ("trails", 8),
        ("characteristic", 0),
        ("rr_window", 3),
        ("s_bound", 5),
        ("rr_j_cap", 25),
        ("max_iter", 50),
    ]:
        wrong = tmp_path / f"wrong_{option}_{value}.json"
        wrong.write_text(json.dumps(dict(base, options={**base["options"], option: value})))
        assert cli.main(["dao", "--input", str(wrong)]) == 1, option
        with pytest.raises(cli.InputError):
            cli.run(base, {"task": "dao", option: value})

    # options.task, if given, must be the task that runs (a command line's
    # task replaces it, as it replaces the top-level one)
    for value in ("verify", "nonsense"):
        with pytest.raises(cli.InputError, match="options.task"):
            cli.run(dict(base, options={**base["options"], "task": value}))


def test_deep_parentheses_are_an_input_error(tmp_path):
    deep = "(" * 250 + "x" + ")" * 250
    base = corpus.load("regular_2d")
    for problem in (
        dict(base, ideals={"I": [deep, "y"]}, options={**base["options"], "ideal": "I"}),
        dict(base, ring={**base["ring"], "relations": [deep + "^2"]}),
    ):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["dao", "--input", str(path)]) == 1
        with pytest.raises(cli.InputError):
            cli.run(problem)


def test_trailing_whitespace_in_a_relation_is_accepted(tmp_path):
    problem = {
        "ring": {"variables": ["x", "y"], "relations": ["x^2 "]},
        "ideals": {"I": ["x", "y "]},
        "task": "gb",
        "options": {"ideal": "I"},
    }
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps(problem))
    assert cli.main(["gb", "--input", str(path)]) == 0


def test_the_caps_of_earlier_versions_are_unknown(tmp_path, capsys):
    # max_iter, s_bound and rr_j_cap could only turn a certified answer into
    # an error or a wrong s; they are refused like any unknown key or flag.
    problem = corpus.load("example_4_2_L")
    for key in ("max_iter", "s_bound", "rr_j_cap"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(dict(problem, options={**problem["options"], key: 8})))
        assert cli.main(["dao", "--input", str(path)]) == 1, key
        assert f"unknown options ['{key}']" in capsys.readouterr().err
    for flag in ("--max-iter", "--s-bound"):
        assert cli.main(["verify", "--input", corpus.path("example_4_2_L"), flag, "8"]) == 1, flag
        assert capsys.readouterr().err.startswith("input error: unrecognized arguments")


def _rednum_problem(path, variables, relations, gens):
    path.write_text(json.dumps({
        "ring": {"characteristic": 32003, "variables": variables, "relations": relations},
        "ideals": {"I": gens},
        "task": "rednum",
        "options": {"ideal": "I"},
    }))
    return str(path)


def test_mathematical_error_exit_code(tmp_path):
    # Not reductions: (x) in k[x, y], and the zero ideal in positive
    # dimension, in k[x, y]/(y^3) and in k[x, y].
    for relations, gens in (([], ["x"]), (["y^3"], ["0"]), ([], ["0"])):
        path = _rednum_problem(tmp_path / "notred.json", ["x", "y"], relations, gens)
        assert cli.main(["rednum", "--input", path]) == 2, (relations, gens)


def test_rednum_of_the_zero_ideal_in_dimension_zero(tmp_path, capsys):
    # In k[x]/(x^2) the zero ideal is a reduction of m, with r = 1.
    path = _rednum_problem(tmp_path / "zero.json", ["x"], ["x^2"], ["x^2"])
    assert cli.main(["rednum", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["r"] == 1


def test_degree_cap_option_maps_to_math_error(tmp_path):
    # The cusp's basis fits under cap 3; its colon by x·y needs degree 4.
    problem = {
        "ring": {"characteristic": 32003, "variables": ["x", "y"], "relations": []},
        "ideals": {"A": ["y^2 - x^3"], "B": ["x*y"]},
        "task": "colon",
        "options": {"colon_a": "A", "colon_b": "B"},
    }
    uncapped = tmp_path / "uncapped.json"
    uncapped.write_text(json.dumps(problem))
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(dict(problem, options={**problem["options"], "degree_cap": 3})))
    numerator = tmp_path / "numerator.json"
    numerator.write_text(json.dumps(dict(problem, task="gb", options={"ideal": "A", "degree_cap": 3})))
    assert cli.main(["gb", "--input", str(numerator)]) == 0
    # the cap applies to its own request only, whatever ran before or after
    assert cli.main(["colon", "--input", str(uncapped)]) == 0
    assert cli.main(["colon", "--input", str(capped)]) == 2
    assert cli.main(["colon", "--input", str(uncapped)]) == 0


def test_ring_table_stays_bounded():
    # Serve many distinct presentations (regular_2d with renamed variables)
    # in one process: only the table's rings stay alive, each holding the
    # memo of at most one request.
    def presentation(i):
        problem = corpus.load("regular_2d")
        problem["ring"]["variables"] = [f"bounded{i}x", f"bounded{i}y"]
        return problem

    def live_rings():
        gc.collect()
        return [
            obj for obj in gc.get_objects()
            if isinstance(obj, QuotientRing) and obj.ambient.variables[0].startswith("bounded")
        ]

    cli.run(presentation(0))
    (ring,) = live_rings()
    one_request = len(ring._op_cache)
    del ring
    cap = cli.RING_TABLE_CAP
    reports = [cli.run(presentation(i)) for i in range(1, 3 * cap)]
    rings = live_rings()
    assert len(rings) <= cap
    assert all(len(r._op_cache) <= one_request for r in rings)
    (ring,) = [r for r in rings if r.ambient.variables[0] == f"bounded{3 * cap - 1}x"]
    del rings

    # a second request on a recent presentation reuses its ring
    last = presentation(3 * cap - 1)
    again = cli.run(last)
    assert cli.build_ring(last) is ring
    assert len(ring._op_cache) <= one_request
    reports[-1].pop("timing_ms")
    again.pop("timing_ms")
    assert again == reports[-1]


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names_ideal_or_element(part) -> bool:
    if isinstance(part, Polynomial):
        return True
    return isinstance(part, (tuple, frozenset)) and any(map(_names_ideal_or_element, part))


def test_start_request_keeps_only_ring_level_entries():
    problem = corpus.load("example_4_2_L")
    cli.run(problem)
    ring = cli.build_ring(problem)
    before = dict(ring._op_cache)
    assert any(_names_ideal_or_element(key) for key in before)
    ring.start_request()
    after = ring._op_cache
    assert after and not any(_names_ideal_or_element(key) for key in after)
    assert all(before[key] is value for key, value in after.items())
    assert {key[0] for key in after} == {"m-power", "depth-witness", "rr", "tangent-cone", "reg-G-upper"}


def test_readme_names_the_flags_and_options_the_cli_accepts(monkeypatch, capsys):
    import argparse
    import re

    flags = set()
    add_argument = argparse._ActionsContainer.add_argument

    def record(self, *names, **kwargs):
        flags.update(name for name in names if name.startswith("--"))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", record)
    assert cli.main(["corpus"]) == 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    command_line = readme.split("## Command line")[1].split("\n## ")[0]
    synopsis = command_line.split("```")[1]
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags - {"--help"}
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*?) \|", command_line, re.M))
    assert rows.keys() == cli.INT_OPTIONS.keys() | cli.TYPED_OPTIONS.keys()
    for key, least in cli.INT_OPTIONS.items():
        assert rows[key] == ("integer" if least is None else f"integer ≥ {least}"), key


def _plain(value):
    """A memo value with each ideal replaced by its reduced basis, as text,
    so that values built by two ring tables compare equal."""
    if isinstance(value, IdealHandle):
        return tuple(map(str, value.gb.basis))
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return str(value)


def _serve_in_order(seeds: list[int]) -> tuple[dict, dict]:
    problem = corpus.load("example_4_2_L")
    reports = {}
    for seed in seeds:
        report = cli.run(problem, {"task": "dao", "seed": seed})
        report.pop("timing_ms")
        reports[seed] = report
    ring = cli.build_ring(problem)
    ring.start_request()
    return reports, {key: _plain(value) for key, value in ring._op_cache.items()}


def test_ring_level_entries_do_not_depend_on_the_order_of_requests(monkeypatch):
    # The entries a ring keeps from request to request, the depth witness
    # among them, depend on the presentation alone, not on which request's
    # seed came first.
    monkeypatch.setattr(cli, "_RING_TABLE", OrderedDict())
    forward, kept_forward = _serve_in_order([1, 2])
    monkeypatch.setattr(cli, "_RING_TABLE", OrderedDict())
    backward, kept_backward = _serve_in_order([2, 1])
    assert ("depth-witness",) in kept_forward
    assert kept_forward == kept_backward
    assert forward == backward


def test_ring_level_entries_stop_changing_over_a_long_run():
    # 300 dense-ideals requests in one process, as the benchmark serves
    # them: after its second request, no ring gains or loses a ring-level
    # entry, so the memo cannot grow with the number of requests.
    dense = _benchmark_workloads().DenseIdeals(corpus)
    requests = dense.warmup(3) + [req for j in range(34) for req in dense.cycle(3, j)]
    kept: dict[QuotientRing, list[dict]] = {}
    for req in requests[:300]:
        cli.run(req["problem"])
        ring = cli.build_ring(req["problem"])
        ring.start_request()
        kept.setdefault(ring, []).append(dict(ring._op_cache))
    assert len(kept) == 2
    for snapshots in kept.values():
        assert len(snapshots) > 2
        second = snapshots[1]
        for later in snapshots[2:]:
            assert later.keys() == second.keys()
            assert all(later[key] is value for key, value in second.items())


def test_warm_rings_serve_the_reports_of_fresh_ones():
    workloads = _benchmark_workloads()
    dense = workloads.DenseIdeals(corpus)
    qq = workloads.QQKernels(corpus)
    problems = [req["problem"] for req in dense.warmup(5) + qq.cycle(5, 0)]
    warm = [cli.run(problem) for problem in problems]
    for problem, report in zip(problems, warm):
        cli._RING_TABLE.clear()
        fresh = cli.run(problem)
        report.pop("timing_ms")
        fresh.pop("timing_ms")
        assert report == fresh, problem["name"]


def test_characteristic_zero_pipeline():
    problem = {
        "name": "char0",
        "ring": {"characteristic": 0, "variables": ["x", "y"], "relations": []},
        "ideals": {},
        "task": "dao",
        "options": {"ideal": "m"},
    }
    report = cli.run(problem)
    results = report["results"]
    assert (results["r"], results["s"]) == (0, 1)
    assert (results["n1"], results["n2"], results["n3"]) == (0, 0, 0)


def test_slow_problem_skipped_without_flag(capsys):
    path = corpus.path("example_4_3")
    assert cli.main(["dao", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "SKIPPED-SLOW" in out


def test_console_script_end_to_end():
    path = corpus.path("regular_2d")
    proc = subprocess.run(
        [sys.executable, "-m", "fullness_lab.cli", "dao", "--input", path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["expected_match"] is True
    assert report["results"]["n1"] == 0


def test_a_fresh_process_imports_the_cli_without_heavy_modules():
    # Every corpus-cold request starts a new process, which pays for each
    # module the library imports: dataclasses pulls in inspect, ast, dis
    # and tokenize, argparse is loaded only by main(), and the version is
    # not read through importlib.metadata.
    heavy = ("dataclasses", "argparse", "importlib.metadata")
    code = f"import sys, fullness_lab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_table_output(capsys):
    path = corpus.path("regular_2d")
    assert cli.main(["dao", "--input", path, "--table"]) == 0
    out = capsys.readouterr().out
    assert "predicate table" in out
    assert "expected match  True" in out


def test_tool_version_is_the_project_version():
    import fullness_lab

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert fullness_lab.__version__ == project["version"]
    report = cli.run(corpus.load("regular_2d"), {"task": "rednum"})
    assert report["tool"] == {"name": "fullness-lab", "version": project["version"]}
