"""The `dao` and `verify` reports of the fast corpus problems, and the
`dao` report of the stretch case, compared with stored copies.

The stored reports (`golden_reports.json`) leave out `timing_ms` and
`tool`, the only fields that may differ between two runs of the same
input and seed.  A change that alters any other byte of a report fails
here; if the change is meant to alter reports, regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and say in the change log which reports moved and why.  The stretch case
(`golden_slow_reports.json`) runs, and is rewritten by `--write`, only with
RUN_SLOW=1.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from fullness_lab import cli, corpus

GOLDEN = Path(__file__).with_name("golden_reports.json")
GOLDEN_SLOW = Path(__file__).with_name("golden_slow_reports.json")
SLOW = ("example_4_3", "dao")
RUN_SLOW = os.environ.get("RUN_SLOW") == "1"
FAST_CORPUS = [e["name"] for e in corpus.listing() if not e["slow"]]
TASKS = ("dao", "verify")


def _report(name: str, task: str) -> dict:
    report = cli.run(corpus.load(name), {"task": task})
    report.pop("timing_ms")
    report.pop("tool")
    return report


def _stored() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _dump(reports: dict) -> str:
    return json.dumps(reports, sort_keys=True, indent=2) + "\n"


def _slow_reports() -> str:
    name, task = SLOW
    return _dump({f"{name}:{task}": _report(name, task)})


def test_golden_file_covers_the_fast_corpus():
    assert sorted(_stored()) == sorted(f"{name}:{task}" for name in FAST_CORPUS for task in TASKS)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("name", FAST_CORPUS)
def test_report_matches_golden(name, task):
    # Compare the serialized forms: they are what a user diffs.
    got = json.dumps(_report(name, task), sort_keys=True, indent=2)
    want = json.dumps(_stored()[f"{name}:{task}"], sort_keys=True, indent=2)
    assert got == want


@pytest.mark.skipif(not RUN_SLOW, reason="stretch case runs only with RUN_SLOW=1")
def test_stretch_report_matches_golden():
    assert _slow_reports() == GOLDEN_SLOW.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    reports = {f"{name}:{task}": _report(name, task) for name in FAST_CORPUS for task in TASKS}
    GOLDEN.write_text(_dump(reports), encoding="utf-8")
    if RUN_SLOW:
        GOLDEN_SLOW.write_text(_slow_reports(), encoding="utf-8")
