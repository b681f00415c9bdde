"""Every golden record of tests/golden/ printed again by cli.main.

Exit codes, keys, strings and verdicts compare exactly; every number, in a
JSON value, a CSV cell or inside a string, to a relative REL, since another
LAPACK build may differ in the last bits.  tests/regen_golden.py writes the
records.
"""

import csv
import io
import json
import math
import re

import pytest

from regen_golden import COMMANDS, GOLDEN, run

REL = 1e-9
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _parsed(stdout: str):
    # a JSON report, else CSV rows of cells
    return json.loads(stdout) if stdout.startswith("{") else list(csv.reader(io.StringIO(stdout)))


def _same(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return type(got) is type(want) and math.isclose(got, want, rel_tol=REL)
    if isinstance(want, str) and isinstance(got, str):
        # the text between the numbers exactly, the numbers to REL
        return NUMBER.split(got) == NUMBER.split(want) and all(
            math.isclose(float(g), float(w), rel_tol=REL)
            for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)))
    return type(got) is type(want) and got == want


def test_numbers_compare_to_rel_and_everything_else_exactly():
    assert _same({"x": [1.0, "r=2.500e-04; a"]}, {"x": [1.0 + 1e-12, "r=2.500e-04; a"]})
    assert not _same([1.0], [1.0 + 1e-6])
    assert not _same(["r=2.501e-04"], ["r=2.500e-04"])
    assert not _same(["exact"], ["broken"])
    assert not _same([0], [0.0]) and not _same([True], [1])


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_prints_its_golden_record(name):
    record = json.loads((GOLDEN / f"{name}.json").read_text())
    assert record["argv"] == COMMANDS[name].split()
    code, stdout = run(record["argv"])
    assert code == record["exit"]
    assert _same(_parsed(stdout), _parsed("".join(record["stdout"]))), stdout
