import cmath
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import time

import pytest

import ptsphere
from ptsphere import cli, reduction, spectral
from ptsphere.cli import ConfigError, _parse_grid, build_parser, main
from ptsphere.exact import I
from ptsphere.phase import PhasePoly, PhaseRational

from catalog_models import PARAMS, RACAH_MODELS, build_masa

BAD_MASA = {
    "n": 2,
    "basis": "u2",
    "name": "noncommuting",
    "generators": [
        [
            {"re": "0", "im": "0"},
            {"re": "1", "im": "0"},
            {"re": "0", "im": "0"},
        ],
        [
            {"re": "0", "im": "0"},
            {"re": "0", "im": "0"},
            {"re": "1", "im": "0"},
        ],
    ],
}


# cartan_od (a, b) off a^2 = 4b^2, where its catalog default (1, 1/2) sits
CARTAN_OD_GENERIC = [("6/5", "1"), ("3", "2/7")]

# su2ab with a = 2, b = 1 in the MASA file format: a valid MASA
SU2AB_MASA = {
    "n": 2,
    "basis": "u2",
    "generators": [
        [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "-1"}, {"re": "2", "im": "0"}],
    ],
    "parity": [1, -2],
}


# the nilpotent model's rows in the MASA file format: a MASA of u(3)
U3_ROWS = [
    [{"re": re, "im": im} for re, im in row]
    for row in (
        [("1", "0")] + [("0", "0")] * 5,
        [("0", "0")] * 2 + [("1", "0")] + [("0", "0")] * 2 + [("0", "1")],
        [("0", "0")] * 3 + [("1", "0"), ("0", "1"), ("0", "0")],
        [("0", "0"), ("1", "0")] + [("0", "0")] * 4,
    )
]


def _with_coefficient(re):
    """SU2AB_MASA with the real part of its first coefficient replaced."""
    rows = [list(row) for row in SU2AB_MASA["generators"]]
    rows[0][0] = {"re": re, "im": "0"}
    return json.dumps(dict(SU2AB_MASA, generators=rows))


def _u3_file(rows=3, **fields):
    """The first rows of U3_ROWS as a u(3) MASA file, fields replacing its own."""
    doc = {"n": 3, "basis": "u3", "generators": U3_ROWS[:rows], "parity": [1, 2, -3]}
    return json.dumps({**doc, **fields})


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_catalog_model(capsys):
    code, out = _run(["validate", "--model", "su2ab", "--a", "2", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["masa_valid"] is True
    assert doc["pt_classification"] == [-1, -1]
    assert "seed" not in doc  # validate samples nothing
    assert "version" in doc


def test_validate_bad_masa_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_MASA))
    code, out = _run(["validate", "--masa", str(path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["masa_valid"] is False
    assert doc["failures"]


@pytest.mark.parametrize(
    "command, content",
    [
        ("validate", None),  # no such file
        ("validate", "not json"),
        ("validate", json.dumps({k: v for k, v in BAD_MASA.items() if k != "generators"})),
        # a catalog name would send build_hamiltonian to the catalog integrals
        ("reduce", json.dumps(dict(SU2AB_MASA, name="lambda"))),
        # the rank is refused before any u(n) matrix is built; generating the
        # n^2 generators first would not finish for n = 10^6
        *(("validate", json.dumps(dict(SU2AB_MASA, n=n, basis=f"u{n}"))) for n in (1, 4, 10**6)),
        # a zero denominator used to escape as ZeroDivisionError (exit 1)
        ("validate", _with_coefficient("1/0")),
        # 10^5000 used to pass validate and crash reduce printing the potential
        *((command, _with_coefficient("1e5000")) for command in ("validate", "reduce")),
        # two elements of u(3) are not maximal, and four not independent;
        # two rows used to pass validate and crash reduce and verify
        *((command, _u3_file(rows)) for rows in (2, 4) for command in ("validate", "reduce", "verify")),
        # a parity must permute the n coordinates: [1, -2] used to crash
        # verify, [1, 2, -3, 4] to pass, and [4, 1, 2, 3] to send s1 to p1
        *((command, _u3_file(parity=parity)) for parity in ([1, -2], [1, 2, -3, 4], [4, 1, 2, 3])
          for command in ("validate", "reduce", "verify")),
        # in integers: 1.0 used to crash validate, and true to be read as 1
        *(("validate", _u3_file(parity=[first, 2, -3])) for first in (1.0, True)),
        # n is a JSON integer: 3.5 used to be read as 3
        *(("validate", _u3_file(n=n)) for n in (3.5, 3.0, True, "3")),
        # name is a JSON string: a list used to pass validate and crash reduce
        # and verify in the build cache, and 5 to be taken as a name
        *((command, _u3_file(name=name)) for name in (["x"], 5)
          for command in ("validate", "reduce", "verify")),
        *(("validate", _u3_file(name=name)) for name in (True, None)),
    ],
    ids=["missing", "not_json", "no_generators", "catalog_name", "n_1", "n_4", "n_10^6",
         "zero_denominator", "exponent-validate", "exponent-reduce",
         *(f"u3_{rows}_rows-{command}" for rows in (2, 4)
           for command in ("validate", "reduce", "verify")),
         *(f"parity_{parity}-{command}" for parity in ("1,-2", "1,2,-3,4", "4,1,2,3")
           for command in ("validate", "reduce", "verify")),
         "parity_1.0,2,-3", "parity_true,2,-3", "n_3.5", "n_3.0", "n_true", "n_string",
         *(f"name_{name}-{command}" for name in ("list", "5")
           for command in ("validate", "reduce", "verify")),
         "name_true", "name_null"],
)
def test_bad_masa_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "masa.json"
    if content is not None:
        path.write_text(content)
    t0 = time.perf_counter()
    code = main([command, "--masa", str(path)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [["validate", "--model", "su2ab"],
     ["spectrum", "--model", "s1", "--gminus", "2", "--gplus", "3"]],
    ids=["validate", "spectrum"],
)
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # a missing directory, and a directory: both used to raise OSError after
    # the work was done (exit 1)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot write --out {str(out)!r}" in captured.err


def test_unknown_model_exits_2(capsys):
    assert main(["validate", "--model", "nope"]) == 2


def test_missing_spectrum_couplings_exits_2(capsys):
    assert main(["spectrum", "--model", "s1"]) == 2


@pytest.mark.parametrize(
    "couplings",
    [["--k1", "1"], ["--gplus", "3"], ["--k1", "1", "--k2", "1", "--gminus", "2", "--gplus", "3"],
     ["--k1", "1", "--gminus", "2", "--gplus", "3"]],
    ids=["k1_only", "gplus_only", "both_pairs", "pair_and_k1"],
)
def test_s1_takes_exactly_one_coupling_pair(capsys, couplings):
    # with both pairs given, k1/k2 used to win and g-/g+ were dropped
    assert main(["spectrum", "--model", "s1", *couplings]) == 2
    captured = capsys.readouterr()
    assert "exactly one coupling pair" in captured.err and captured.out == ""


def test_csv_on_json_only_command_exits_2(capsys):
    assert main(["validate", "--model", "nilpotent", "--format", "csv"]) == 2


def test_reduce_reports_identities(capsys):
    code, out = _run(["reduce", "--model", "cartan_od"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["identities"]["zhat_eq_k"]["passed"] is True
    assert doc["identities"]["casimir_projection"]["passed"] is True
    assert doc["identities"]["sum_relation"]["passed"] is True
    assert "potential" in doc and "integrals" in doc
    # two generic points, off the boundary a^2 = 4b^2 of the default (1, 1/2)
    for a, b in CARTAN_OD_GENERIC:
        code, out = _run(["reduce", "--model", "cartan_od", "--a", a, "--b", b], capsys)
        identities = json.loads(out)["identities"]
        assert code == 0 and all(check["passed"] for check in identities.values())
        assert identities["casimir_projection"]["detail"] == (
            "(3) H + (1) k1k1 + (2) k1k3 + (1) k3k3")
        assert identities["sum_relation"]["trials"] == 35
    # a model without a sum relation gets neither it nor the Casimir fit
    code, out = _run(["reduce", "--model", "degenerate_plus"], capsys)
    assert code == 0 and list(json.loads(out)["identities"]) == ["zhat_eq_k"]


@pytest.mark.parametrize("model", [name for name in PARAMS if name not in RACAH_MODELS])
def test_racah_outside_lambda_exits_2(capsys, model):
    # the model table, not a flag, decides where T12 = -T13 = T23 is checked:
    # --racah is gone, and refused like any flag reduce does not read
    assert main(["reduce", "--model", model, "--racah"]) == 2
    captured = capsys.readouterr()
    assert "--racah" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("model", PARAMS)
def test_reduce_runs_the_checks_the_model_table_picks(capsys, model):
    # T12 = -T13 = T23 holds for the lambda family only, and reduce runs it
    # there with no flag; the seed is echoed only beside a sampled check
    code, out = _run(["reduce", "--model", model], capsys)
    assert code == 0
    doc = json.loads(out)
    entry = reduction.MODELS[model]
    want = ["zhat_eq_k"]
    want += ["casimir_projection", "sum_relation"] if "sum_relation" in entry.relations else []
    want += ["separable_potential"] if "separable_potential" in entry.relations else []
    want += ["racah"] if model in RACAH_MODELS else []
    assert sorted(doc["identities"]) == sorted(want)
    assert all(check["passed"] is True for check in doc["identities"].values())
    assert ("seed" in doc) == (len(want) > 1)
    if "seed" not in doc:
        assert main(["reduce", "--model", model, "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and captured.out == ""


@pytest.mark.parametrize("model", PARAMS)
def test_verify_always_echoes_its_seed(capsys, monkeypatch, model):
    # the homomorphism check samples on every model, a --masa file included
    def sampled(masa, seed):
        return reduction.RelationReport(True, 1, "")

    monkeypatch.setattr(reduction, "verify_conservation", sampled)
    monkeypatch.setattr(reduction, "verify_homomorphism", sampled)
    code, out = _run(["verify", "--model", model, "--seed", "7"], capsys)
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out = _run(["verify", "--model", model], capsys)
    assert code == 0 and json.loads(out)["seed"] == 20230411


def test_masa_file_gets_no_catalog_check(tmp_path, capsys):
    path = tmp_path / "su2ab.json"
    path.write_text(json.dumps(SU2AB_MASA))
    # the file has no model table entry: reduce runs the symbolic check only
    # and samples nothing, so it neither echoes nor takes a seed
    code, out = _run(["reduce", "--masa", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0 and list(doc["identities"]) == ["zhat_eq_k"] and "seed" not in doc
    assert main(["reduce", "--masa", str(path), "--seed", "5"]) == 2
    code, out = _run(["verify", "--masa", str(path)], capsys)
    assert code == 0 and json.loads(out)["conservation"] == {
        "passed": True, "trials": 0,
        "detail": "no integral checked: the MASA has no catalog integrals",
    }


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_pt_incompatible_parity_is_reported(tmp_path, capsys, command):
    # su2ab's file with its second generator mixed: still a MASA, but that
    # generator is neither even nor odd under the parity.  Both commands
    # report so and exit by their checks
    second = [{"re": "0", "im": "0"}, {"re": "1", "im": "-1"}, {"re": "1", "im": "0"}]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(dict(SU2AB_MASA, generators=[SU2AB_MASA["generators"][0], second])))
    code, out = _run([command, "--masa", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["masa_valid"] is True
    assert doc["pt_classification"] == "failed: generator 1 is neither even nor odd"
    if command == "reduce":
        assert doc["identities"]["zhat_eq_k"]["passed"] is True


@pytest.mark.parametrize("command", ["validate", "reduce", "verify"])
@pytest.mark.parametrize(
    "flag, value", [("--model", "su2ab"), ("--a", "2"), ("--b", "1"), ("--lambda2", "1/4")]
)
def test_masa_file_stands_alone(tmp_path, capsys, command, flag, value):
    # the file decides the model; a model flag beside it used to be dropped
    path = tmp_path / "su2ab.json"
    path.write_text(json.dumps(SU2AB_MASA))
    assert main([command, "--masa", str(path), flag, value]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # lambda2 = 9/10 would also be out of range for lambda
        ["--model", "nilpotent", "--a", "5", "--lambda2", "9/10"],
        ["--model", "su2ab", "--lambda2", "1/4"],
        ["--model", "lambda", "--b", "1"],
    ],
)
def test_flag_the_model_does_not_take_exits_2(capsys, argv):
    assert main(["validate", *argv]) == 2
    captured = capsys.readouterr()
    assert argv[1] in captured.err
    for flag in argv[2::2]:
        assert repr(flag.lstrip("-")) in captured.err
    assert captured.out == ""


def test_oversized_rational_parameter_exits_2(capsys):
    # without the bound, factoring the radicals of the first value runs past
    # 10 s, and Fraction("1e100000000") builds a 10^8-digit int
    for value in ("1000000000039/3000000000091", "1e100000000"):
        t0 = time.perf_counter()
        assert main(["validate", "--model", "lambda", "--lambda2", value]) == 2
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert value in captured.err
        assert captured.out == ""
        assert elapsed < 1.0
    # the bound itself is accepted
    assert main(["validate", "--model", "lambda", "--lambda2", "1/1000000"]) == 0


def test_seed_reaches_sum_relation_and_conservation(capsys, monkeypatch):
    # every sampled zero verdict is one first_nonzero_residual call
    seeds = []
    real = reduction.first_nonzero_residual

    def recording(residuals, n, trials, seed):
        seeds.append(seed)
        return real(residuals, n, trials, seed)

    monkeypatch.setattr(reduction, "first_nonzero_residual", recording)
    su2ab = ["--model", "su2ab", "--a", "2", "--b", "1"]
    assert main(["reduce", *su2ab, "--seed", "5"]) == 0
    assert seeds == [5]  # the sum relation
    seeds.clear()
    assert main(["reduce", "--model", "lambda", "--seed", "5"]) == 0
    assert seeds == [5, 5, 5]  # sum relation, separable potential, Racah
    seeds.clear()
    assert main(["verify", *su2ab, "--seed", "7"]) == 0
    assert seeds == [7, 7]  # conservation, bracket preservation


# e1, e2 and e4 over the symmetric basis of u(3): independent and
# symmetric, but e1 and e4 do not commute
NONCOMMUTING_U3 = json.dumps({
    "n": 3, "basis": "u3", "parity": [1, 2, -3],
    "generators": [[{"re": "1" if k == j else "0", "im": "0"} for k in range(6)]
                   for j in (0, 1, 3)],
})


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_an_invalid_masa_runs_no_check(tmp_path, capsys, monkeypatch, command):
    # reduce and verify share one gate: on a file validate refuses they
    # print masa_valid false and validate's failures, run nothing, exit 1
    path = tmp_path / "noncommuting.json"
    path.write_text(NONCOMMUTING_U3)
    code, out = _run(["validate", "--masa", str(path)], capsys)
    failures = json.loads(out)["failures"]
    assert code == 1 and failures == [["commutativity", [1, 2]]]

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran on an invalid MASA")

    for name in ("verify_conservation", "verify_homomorphism", "verify_pt_invariance",
                 "verify_masa_reduction", "build_hamiltonian"):
        monkeypatch.setattr(reduction, name, no_check)
    code, out = _run([command, "--masa", str(path)], capsys)
    doc = json.loads(out)
    assert code == 1
    assert set(doc) == {"version", "masa_valid", "failures"} | (
        {"seed"} if command == "verify" else set())
    assert doc["masa_valid"] is False and doc["failures"] == failures


def test_a_dependent_masa_prints_a_json_witness(tmp_path, capsys):
    # the second row twice the first: independence fails, with no witness
    rows = SU2AB_MASA["generators"]
    double = [{"re": str(2 * int(c["re"])), "im": "0"} for c in rows[0]]
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps({"n": 2, "basis": "u2", "generators": [rows[0], double]}))
    code, out = _run(["validate", "--masa", str(path)], capsys)
    assert code == 1 and json.loads(out)["failures"] == [["independence", None]]


@pytest.mark.parametrize("command", ["validate", "reduce", "verify"])
def test_cartan_od_at_a_b_zero_is_refused(capsys, command):
    # Z2 = 0 there: a configuration error, as su2ab's a = b = 0 is
    for model in ("cartan_od", "su2ab"):
        assert main([command, "--model", model, "--a", "0", "--b", "0"]) == 2
        captured = capsys.readouterr()
        assert "cannot both vanish" in captured.err and captured.out == ""
    for a, b in (("0", "1"), ("1", "0")):
        code, out = _run(["validate", "--model", "cartan_od", "--a", a, "--b", b], capsys)
        assert code == 0 and json.loads(out)["masa_valid"] is True


def test_reduce_defaults_come_from_the_catalog(capsys):
    _, default = _run(["reduce", "--model", "cartan_od"], capsys)
    _, explicit = _run(["reduce", "--model", "cartan_od", "--a", "1", "--b", "1/2"], capsys)
    assert default == explicit


def test_verify_command(capsys):
    code, out = _run(["verify", "--model", "su2ab", "--a", "2", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "seed", "masa_valid", "conservation",
                        "bracket_preservation", "pt_invariance"}
    assert doc["masa_valid"] is True
    assert doc["conservation"]["passed"] is True
    assert doc["bracket_preservation"]["passed"] is True
    assert doc["pt_invariance"]["passed"] is True
    for a, b in CARTAN_OD_GENERIC:
        code, out = _run(["verify", "--model", "cartan_od", "--a", a, "--b", b], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["masa_valid"] is True
        assert all(doc[key]["passed"] for key in ("conservation", "bracket_preservation",
                                                  "pt_invariance"))
        assert doc["bracket_preservation"]["trials"] == 30


def test_spectrum_s1_from_g_parameters(capsys):
    code, out = _run(
        ["spectrum", "--model", "s1", "--gminus", "2", "--gplus", "3", "--N", "128"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["phase"] == "exact"
    assert doc["grid_N"] == 128
    rows = doc["rows"]
    assert rows[0][3] == 0.0  # lowest closed-form level on this tower
    for row in rows:
        assert row[4] <= 1e-6


def test_spectrum_prints_one_row_per_judged_level(capsys):
    # a report holds the levels it judges and prints one row each: s1 at
    # --K 2 prints 0 and 1, and complex couplings, which match nothing, print
    # all 20 levels of --K 20 with blank closed forms
    for argv, count in (("s1 --a 2 --b 1 --gminus 2 --gplus 3 --K 2 --N 64", 2),
                        ("s1 --a 1 --b 2 --k1 1 --k2 1/2 --K 20", 20),
                        ("poschl_teller --gminus 2 --gplus 3 --K 3", 3),
                        ("degenerate --alpha 2 --q 1", 1)):
        argv = ["spectrum", "--model", *argv.split()]
        code, out = _run(argv, capsys)
        rows = json.loads(out)["rows"]
        assert code == 0 and [row[0] for row in rows] == list(range(count)), argv
        code, out = _run([*argv, "--format", "csv"], capsys)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "index,re_E,im_E,closed_form,deviation"
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(count)]
        if count == 2:
            assert [row[1] for row in rows] == [row[3] for row in rows] == [0.0, 1.0]
        if count == 20:
            assert all(row[3:] == ["", ""] for row in rows)


@pytest.mark.parametrize("gminus, gplus", [("3", "2"), ("4", "3")])
def test_spectrum_s1_swapped_couplings(capsys, gminus, gplus):
    argv = ["spectrum", "--model", "s1", "--a", "2", "--b", "1",
            "--gminus", gminus, "--gplus", gplus, "--N", "256"]
    code, out = _run(argv, capsys)
    assert code == 0
    assert json.loads(out)["phase"] == "exact"


def test_spectrum_s1_non_integer_pair_misses_the_periodic_spectrum(capsys):
    # the periodic spectrum is {m^2}; the branch energies here are
    # (j + 1/5)^2, (j + 9/5)^2, (j + 17/5)^2, none an integer square
    argv = ["spectrum", "--model", "s1", "--a", "2", "--b", "1",
            "--gminus", "13/10", "--gplus", "21/10", "--N", "256"]
    code, out = _run(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert [row[1] for row in doc["rows"][:3]] == [0.0, 1.0, 1.0]
    assert abs(doc["rows"][0][3] - 0.04) < 1e-9
    assert any("{m^2" in n and "double eigenvalue" in n for n in doc["notes"])
    assert any("periodic operator" in n and "integer squares" in n for n in doc["notes"])


def test_spectrum_singular_circle_exits_2(capsys):
    argv = ["spectrum", "--model", "s1", "--a", "0", "--gminus", "2", "--gplus", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "real circle" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("N", ["0", "1", "65537"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "s1", "--gminus", "2", "--gplus", "3"],
        ["spectrum", "--model", "poschl_teller", "--gminus", "2", "--gplus", "3"],
        ["scan", "--model", "lambda"],
    ],
    ids=["s1", "poschl_teller", "scan"],
)
def test_grid_size_out_of_range_exits_2(capsys, argv, N):
    assert main([*argv, "--N", N]) == 2
    captured = capsys.readouterr()
    assert "--N" in captured.err and "65536" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, text",
    [
        ("spectrum --model s1 --gminus 2 --gplus 3 --K 0", "--K"),
        ("spectrum --model poschl_teller --gminus 2 --gplus 3 --K 65537", "--K"),
        ("scan --model lambda --K -1", "--K"),
        ("spectrum --model degenerate --alpha 2 --q -2", "--q"),
        ("spectrum --model degenerate --alpha 2 --q 141", "--q"),  # math.gamma overflow
        ("scan --model lambda --lambda2 0:inf:0.1", "0:inf:0.1"),  # never returned
        ("scan --model lambda --lambda2 0:0.4:1e-7", "1000 points"),
        ("scan --model lambda --lambda2 a:b:c", "a:b:c"),
        ("scan --model lambda --lambda2 0.1:0.2:nan", "0.1:0.2:nan"),  # was one point
        ("scan --model lambda --lambda2 0.5:0.1:0.05", "0.5:0.1:0.05"),  # was no point
        ("spectrum --model poschl_teller --gminus 2 --gplus 3 --tol-match -1", "--tol-match"),
        ("spectrum --model chi --ell3 2 --composite 5 --tol-match nan", "--tol-match"),
        ("spectrum --model s1 --gminus 2 --gplus 3 --tol-match inf", "--tol-match"),
        ("spectrum --model poschl_teller --gminus 1/2 --gplus 2", "--gminus 1/2"),
        ("spectrum --model chi --ell3 1/2 --composite 2", "--ell3 1/2"),
        ("spectrum --model s1 --a 1 --b 1 --gminus 2 --gplus 3", "--a 1, --b 1"),
        # a solver's error names every model flag given
        ("spectrum --model chi --ell3 1/3 --composite 4", "--ell3 1/3, --composite 4: Dirichlet"),
        # chi at M < 1/2 has g_- = M + 1/2 < 1: its levels converge as h^(2M),
        # and the level-0 deviation at --composite 1/4 used to fail (exit 1)
        ("spectrum --model chi --ell3 1 --composite 1/4", "--ell3 1, --composite 1/4: Dirichlet"),
        ("spectrum --model chi --ell3 1 --composite 0", "--ell3 1, --composite 0: Dirichlet"),
        ("spectrum --model s1 --a 3 --b 3 --gminus 2 --gplus 3",
         "--a 3, --b 3, --gminus 2, --gplus 3: needs a^2 != b^2"),
        ("spectrum --model degenerate --alpha 3/2 --q 150", "--alpha 3/2, --q 150: q + terms"),
        ("spectrum --model s1 --a 0 --gminus 2 --gplus 3 --N 64",
         "--a 0, --gminus 2, --gplus 3, --N 64: the denominator vanishes"),
        # the float Bessel series cannot decide the degenerate residual: it
        # cancels (residual 0.12 at alpha 40, 9.9e-9 at alpha 28.2), or it
        # vanishes and any residual is 0
        ("spectrum --model degenerate --alpha 40 --q 1",
         "--alpha 40, --q 1: floats cannot decide the Bessel ODE residual at |alpha| = 40"),
        ("spectrum --model degenerate --alpha 0 --q 1",
         "--alpha 0, --q 1: the Bessel series vanishes"),
        ("scan --model lambda --lambda2 0.5:0.5:1 --k1 10 --k2 10 --k3 1",
         "--lambda2 0.5:0.5:1, --k1 10, --k2 10, --k3 1: floats cannot decide"),
        ("scan --model lambda --lambda2 0.5:0.5:1 --k1 1 --k2 1 --k3 2",
         "--k1 1, --k2 1, --k3 2: the Bessel series vanishes"),
        # a scan's solver error names the flags given, as spectrum's does
        ("scan --model lambda --lambda2 0.6:0.6:1 --k1 1/5 --k2 1/5 --k3 1/5",
         "--lambda2 0.6:0.6:1, --k1 1/5, --k2 1/5, --k3 1/5: Dirichlet selection"),
    ],
)
def test_spectral_input_out_of_range_exits_2(capsys, argv, text):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and text in captured.err
    assert captured.out == ""


def test_grid_size_bounds_are_accepted(capsys):
    s1 = ["spectrum", "--model", "s1", "--gminus", "2", "--gplus", "3"]
    assert main([*s1, "--N", "2"]) == 0
    assert main([*s1, "--N", "65536"]) == 0
    assert main([*s1, "--K", "1"]) == 0
    assert main(["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "140"]) == 0
    assert len(_parse_grid("0:0.999:0.001")) == 1000
    assert _parse_grid("0.5:0.5:0.1") == [0.5]
    with pytest.raises(ConfigError, match="more than 1000 points"):
        _parse_grid("0:1:0.001")


def test_tol_match_zero_is_used_not_replaced(capsys):
    # every finite-difference level deviates from its closed form, so a zero
    # tolerance fails; it used to fall back to the model default and pass
    argv = ["spectrum", "--model", "poschl_teller", "--gminus", "2", "--gplus", "3",
            "--N", "4096", "--tol-match"]
    code, out = _run([*argv, "0"], capsys)
    assert code == 1 and json.loads(out)["tol_match"] == 0.0
    assert main([*argv, "1e-300"]) == 1
    assert main([*argv, "1e-3"]) == 0


def test_spectrum_csv_output(tmp_path, capsys):
    out_path = tmp_path / "spec.csv"
    code = main(
        [
            "spectrum", "--model", "poschl_teller", "--gminus", "2",
            "--gplus", "3", "--N", "512", "--format", "csv",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["index", "re_E", "im_E"]
    assert len(lines) > 4


def test_spectrum_degenerate_bessel(capsys):
    argv = ["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "1"]
    code, out = _run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    # the row's deviation is the Bessel ODE residual, a Python float, which
    # the JSON text writes as its repr
    resid = spectral.bessel_ode_residual(2.0, 1, 0.5)
    assert type(resid) is float and resid <= 1e-10
    assert doc["rows"] == [[0, 2.0, 0.0, 2.0, resid]] and f"      {resid!r}\n" in out
    assert doc["notes"] == [f"bessel_ode_residual={resid:.3e}"] and doc["max_imag"] == 0.0
    # the Bessel residual reads no grid: none is echoed, and --N or --K exits 2
    assert "grid_N" not in doc and "grid_K" not in doc
    for flag in ("--N", "--K"):
        assert main([*argv, flag, "7"]) == 2
        assert flag in capsys.readouterr().err


# a valid command line per spectrum model, and the flags the model reads
SPECTRUM_ARGV = {
    "s1": "--gminus 2 --gplus 3",
    "poschl_teller": "--gminus 2 --gplus 3",
    "chi": "--ell3 2 --composite 5",
    "degenerate": "--alpha 2 --q 1",
}
SPECTRUM_READS = {
    "s1": {"--a", "--b", "--k1", "--k2", "--gminus", "--gplus", "--N", "--K"},
    "poschl_teller": {"--gminus", "--gplus", "--N", "--K"},
    "chi": {"--ell3", "--composite", "--N", "--K"},
    "degenerate": {"--alpha", "--q"},
}
MODEL_PARAMETER_FLAGS = ["--a", "--b", "--k1", "--k2", "--gminus", "--gplus", "--ell3",
                         "--composite", "--alpha", "--q", "--N", "--K"]
UNREAD_SPECTRUM_FLAGS = [
    (model, flag) for model in SPECTRUM_READS for flag in MODEL_PARAMETER_FLAGS
    if flag not in SPECTRUM_READS[model]
]


NEEDED_SPECTRUM_FLAGS = [(model, flag) for model, (_, needs, _) in cli.SPECTRUM_MODELS.items()
                         for flag in needs.split()]


@pytest.mark.parametrize("model, flag", NEEDED_SPECTRUM_FLAGS)
def test_a_needed_spectrum_flag_left_out_exits_2(capsys, model, flag):
    # s1 needs one of two coupling pairs, which its solver checks itself
    argv = SPECTRUM_ARGV[model].split()
    i = argv.index(flag)
    assert main(["spectrum", "--model", model, *argv[:i], *argv[i + 2:]]) == 2
    captured = capsys.readouterr()
    assert f"config error: {model} needs " in captured.err and flag in captured.err
    assert captured.out == ""


def test_needed_spectrum_flags_are_counted():
    assert len(NEEDED_SPECTRUM_FLAGS) == 6


def test_unread_spectrum_flags_are_counted():
    assert len(UNREAD_SPECTRUM_FLAGS) == 30


@pytest.mark.parametrize("model, flag", UNREAD_SPECTRUM_FLAGS)
def test_a_flag_the_spectrum_model_does_not_read_exits_2(capsys, model, flag):
    # e.g. poschl_teller --alpha 5 used to exit 0 with --alpha dropped
    argv = ["spectrum", "--model", model, *SPECTRUM_ARGV[model].split(), flag, "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and flag in captured.err
    assert captured.out == ""


def test_scan_restricted_to_lambda_family(capsys):
    assert main(["scan", "--model", "su2ab"]) == 2


def test_scan_small_grid(capsys):
    # the xi and chi levels deviate from their closed forms by 3.8e-3 at
    # N = 128 and 2.8e-4 at N = 512, against the default --tol-match 1e-3
    argv = ["scan", "--model", "lambda", "--lambda2", "0.1:0.3:0.1", "--N"]
    for N, want in (("128", 1), ("512", 0)):
        code, out = _run([*argv, N], capsys)
        assert code == want, N
        rows = json.loads(out)["rows"]
        assert len(rows) == 3 and all(len(r) == 4 and r[1] == "exact" for r in rows)
        assert all(r[3].startswith("max_rel_deviation=") for r in rows)
        assert json.loads(out)["tol_match"] == 1e-3  # the default it failed against
    assert main([*argv, "128", "--tol-match", "5e-3"]) == 0


def test_scan_keeps_the_degenerate_note(capsys):
    code, out = _run(["scan", "--model", "lambda", "--lambda2", "0.45:0.5:0.05"], capsys)
    assert code == 0
    (_, _, _, exact_note), (_, phase, _, note) = json.loads(out)["rows"]
    assert exact_note.startswith("max_rel_deviation=")
    assert phase == "degenerate" and float(note.split("bessel_ode_residual=")[1]) <= 1e-10


def test_scan_shares_the_degenerate_level(capsys):
    # lambda^2 = 1/2 with the default k = (1, 3/2, 1/2): alpha^2 = 4 + 9 - 1/2
    code, out = _run(["scan", "--model", "lambda", "--lambda2", "0.5:0.5:0.1"], capsys)
    (row,) = json.loads(out)["rows"]
    resid = spectral.degenerate_level(cmath.sqrt(12.5), 1).matches[0][1]
    assert code == 0 and row == [0.5, "degenerate", 0.0, f"bessel_ode_residual={resid:.3e}"]


def test_scan_fails_on_the_degenerate_residual(capsys, monkeypatch):
    argv = ["scan", "--model", "lambda", "--lambda2", "0.5:0.5:0.1"]
    code, out = _run(argv, capsys)
    assert code == 0 and json.loads(out)["rows"][0][1] == "degenerate"
    monkeypatch.setattr(spectral, "bessel_ode_residual", lambda *args: 1.0)
    code, out = _run(argv, capsys)
    assert code == 1
    assert json.loads(out)["rows"][0][3] == "bessel_ode_residual=1.000e+00"


@pytest.mark.parametrize("tol, want", [("1e-18", 1), ("1", 0)])
def test_spectrum_and_scan_judge_the_degenerate_level_alike(capsys, tol, want):
    # k = (1, 0, 0) puts alpha^2 = 4 at lambda^2 = 1/2: the level of
    # spectrum --alpha 2 --q 1, residual 7.8e-16, judged at the one --tol-match
    spectrum = ["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "1"]
    scan = ["scan", "--model", "lambda", "--lambda2", "0.5:0.5:1", "--k1", "1", "--k2", "0",
            "--k3", "0"]
    codes = [_run([*argv, "--tol-match", tol], capsys) for argv in (spectrum, scan)]
    assert [code for code, _ in codes] == [want, want]
    assert [json.loads(out)["tol_match"] for _, out in codes] == [float(tol)] * 2


def test_scan_judges_every_sphere_match(capsys, monkeypatch):
    # --K 20 gives each point 20 xi and 20 chi matches; the 13th chi match,
    # past the default --K 8, fails the scan when it misses
    argv = ["scan", "--model", "lambda", "--lambda2", "0.1:0.1:1", "--N", "2048", "--K", "20"]
    assert _run(argv, capsys)[0] == 0
    real = spectral.solve_chi_equation

    def perturbed(*args):
        rep = real(*args)
        cand, dev, _ = rep.matches[12]
        rep.matches[12] = (cand, dev, 1.0)
        return rep

    monkeypatch.setattr(spectral, "solve_chi_equation", perturbed)
    code, out = _run(argv, capsys)
    assert code == 1 and json.loads(out)["rows"][0][3] == "max_rel_deviation=1.000e+00"


def test_spectrum_degenerate_residual_is_judged_against_tol_match(capsys):
    argv = ["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "1"]
    code, out = _run(argv, capsys)
    assert code == 0 and json.loads(out)["tol_match"] == 1e-10
    code, out = _run([*argv, "--tol-match", "0"], capsys)
    assert code == 1 and json.loads(out)["tol_match"] == 0.0


def test_a_nan_degenerate_residual_fails(capsys, monkeypatch):
    # at alpha = 1e6 the Bessel series overflows: refused before any residual
    argv = ["spectrum", "--model", "degenerate", "--alpha", "1000000", "--q", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--alpha 1000000, --q 1: floats cannot decide" in captured.err
    assert "overflows" in captured.err and captured.out == ""
    monkeypatch.setattr(spectral, "bessel_ode_residual", lambda *args: float("nan"))
    code, out = _run(["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "1"], capsys)
    assert code == 1 and math.isnan(json.loads(out)["rows"][0][4])


# the flags each subcommand's cmd_* reads, and no others
PARSER_SURFACE = {
    "validate": {"--model", "--masa", "--a", "--b", "--lambda2", "--out"},
    "reduce": {"--model", "--masa", "--a", "--b", "--lambda2", "--out", "--seed"},
    "verify": {"--model", "--masa", "--a", "--b", "--lambda2", "--out", "--seed", "--appendix"},
    "spectrum": {"--model", "--a", "--b", "--k1", "--k2", "--gminus", "--gplus", "--ell3",
                 "--composite", "--alpha", "--q", "--N", "--K", "--tol-match", "--out",
                 "--format"},
    "scan": {"--model", "--lambda2", "--k1", "--k2", "--k3", "--N", "--K", "--tol-match",
             "--out", "--format"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(PARSER_SURFACE)
    for name, parser in sub.choices.items():
        taken = {s for s in parser._option_string_actions if s not in ("-h", "--help")}
        assert taken == PARSER_SURFACE[name], name
    assert sum(map(len, PARSER_SURFACE.values())) == 47


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("validate --model su2ab --k1 1", "--k1"),
        ("spectrum --model s1 --gminus 2 --gplus 3 --masa f.json", "--masa"),
        ("scan --model lambda --a 2", "--a"),
        ("verify --model su2ab --format csv", "--format"),
        ("verify --model su2ab --app", "--app"),  # no abbreviations
        ("scan --model lambda --tol-real 1e-8", "--tol-real"),  # deleted: decided nothing
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, argv, flag):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and flag in captured.err
    assert captured.out == ""


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py as it stands, loaded as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_spectrum_and_scan_commands_pass(monkeypatch):
    # the float-spectra workload's command lines, read from perfbench as it
    # stands: a flag the CLI refuses would fail the benchmark, not a test
    workloads = _perfbench_workloads(monkeypatch)
    # seeds 0 and 1 draw the coupling pairs (3, 4) and (2, 3)
    for seed in (0, 1):
        ops = [op for op in workloads.setup("float-spectra", seed)
               if op.name.startswith(("spectrum_", "scan"))]
        assert len(ops) == 7
        assert [op.name for op in ops if not op.run()] == [], seed


@pytest.mark.parametrize("workload", ["exact-eval", "symbolic-build"])
def test_benchmark_exact_operations_pass(workload, monkeypatch):
    # every operation reads report attributes (.passed, .detail,
    # .antisymmetry_ok) that no module-level name check sees
    ops = _perfbench_workloads(monkeypatch).setup(workload, 0)
    assert ops
    assert [op.name for op in ops if op.run() is not True] == []


def test_reduce_reports_a_failed_racah_row(capsys, monkeypatch):
    # with T3 perturbed, T12 = -T13 = T23 fails at the first sampled point:
    # the row reads passed false beside its trials, names the residual that
    # was nonzero, and reduce exits 1
    real = reduction.integrals_catalog
    s1 = PhaseRational(PhasePoly.s(3, 0))

    def perturbed(masa):
        return [(name, T + s1 if name == "T3" else T) for name, T in real(masa)]

    monkeypatch.setattr(reduction, "integrals_catalog", perturbed)
    code, out = _run(["reduce", "--model", "lambda"], capsys)
    assert code == 1
    racah = json.loads(out)["identities"]["racah"]
    assert racah == {"passed": False, "trials": 20, "detail": "T12 + T13 nonzero for lambda"}


def test_reduce_reports_a_failed_casimir_row(capsys, monkeypatch):
    # s_1 added to the image of generator 1: the projected Casimir leaves
    # {H, 1, k_i k_j}, so the fit's row fails with its reason, and the
    # report is printed in full
    real = reduction.generator_images

    def perturbed(m):
        images = real(m)
        images[1] = images[1] + PhaseRational(PhasePoly.s(m.n, 0))
        return images

    monkeypatch.setattr(reduction, "generator_images", perturbed)
    code, out = _run(["reduce", "--model", "cartan_od"], capsys)
    assert code == 1
    idents = json.loads(out)["identities"]
    assert idents["casimir_projection"] == {
        "passed": False,
        "trials": 22,
        "detail": "sampled system is inconsistent with the basis for cartan_od",
    }
    assert idents["sum_relation"]["passed"] is True


def test_verify_reports_a_failed_pt_invariance_row(capsys, monkeypatch):
    # lambda's potential plus the constant i, whose PT image is -i: V is no
    # longer PT-invariant, while conservation and the brackets still hold
    model = reduction.MODELS["lambda"]
    shifted = reduction.build_potential(build_masa("lambda")) + PhaseRational.const(3, I)
    monkeypatch.setitem(
        reduction.MODELS, "lambda", dataclasses.replace(model, potential=lambda lam2: shifted)
    )
    code, out = _run(["verify", "--model", "lambda", "--seed", "7"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["conservation"]["passed"] and doc["bracket_preservation"]["passed"]
    assert doc["pt_invariance"] == {
        "passed": False, "trials": 0, "detail": "V != PT(V) for lambda",
    }


@pytest.mark.parametrize("source", ["su2ab", "cartan_od", "file"])
def test_every_identity_row_is_one_record(tmp_path, capsys, source):
    # every row reduce and verify --appendix print is {passed, trials,
    # detail}, whichever check made it
    if source == "file":
        path = tmp_path / "su2ab.json"
        path.write_text(json.dumps(SU2AB_MASA))
        argv = ["--masa", str(path)]
    else:
        argv = ["--model", source]
    _, out = _run(["reduce", *argv], capsys)
    rows = list(json.loads(out)["identities"].values())
    _, out = _run(["verify", *argv, "--appendix"], capsys)
    verify_rows = [v for v in json.loads(out).values() if isinstance(v, dict)]
    assert len(verify_rows) == 4
    assert all(set(row) == {"passed", "trials", "detail"} for row in rows + verify_rows)


def test_failing_identity_rows_keep_the_row_schema(capsys, monkeypatch):
    # a failing row is {passed, trials, detail}, as a passing one is, with
    # trials the count the check was set to run: cartan_od's sum relation
    # with s_1 added to one side on reduce (the passing row's count), and a
    # perturbed generator image on verify (the homomorphism's 30 points)
    s1 = PhaseRational(PhasePoly.s(3, 0))
    reduce_argv = ["reduce", "--model", "cartan_od", "--seed", "5"]
    trials = json.loads(_run(reduce_argv, capsys)[1])["identities"]["sum_relation"]["trials"]
    model = reduction.MODELS["cartan_od"]
    relation = model.relations["sum_relation"]

    def perturbed_sides(m):
        lhs, rhs = relation(m)
        return lhs, rhs + s1

    monkeypatch.setitem(
        reduction.MODELS, "cartan_od",
        dataclasses.replace(model, relations={"sum_relation": perturbed_sides}),
    )
    code, out = _run(reduce_argv, capsys)
    assert code == 1
    assert json.loads(out)["identities"]["sum_relation"] == {
        "passed": False,
        "trials": trials,
        "detail": "sum relation for cartan_od fails at a sampled point",
    }

    real = reduction.generator_images

    def perturbed_images(m):
        images = real(m)
        images[1] = images[1] + s1
        return images

    monkeypatch.setattr(reduction, "generator_images", perturbed_images)
    code, out = _run(["verify", "--model", "cartan_od", "--seed", "7"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["conservation"]["passed"] is True
    assert doc["bracket_preservation"] == {
        "passed": False,
        "trials": 30,
        "detail": "bracket image mismatch for pair (1,3) in cartan_od",
    }


def test_reports_are_deterministic(capsys):
    _, out1 = _run(["validate", "--model", "nilpotent"], capsys)
    _, out2 = _run(["validate", "--model", "nilpotent"], capsys)
    assert out1 == out2


EXACT_IMPORTS_PROBE = """
import contextlib, io, sys
from ptsphere import cli, reduction, spectral
runs = [
    ["reduce", "--model", "su2ab", "--a", "2", "--b", "1"],
    ["verify", "--model", "cartan_od"],
    ["validate", "--model", "lambda"],
    ["spectrum", "--model", "s1", "--a", "2", "--b", "1", "--gminus", "2", "--gplus", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
    loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    appendix_code = cli.main(["verify", "--model", "cartan_od", "--appendix"])
    appendix_loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    float_code = cli.main(["spectrum", "--model", "poschl_teller", "--gminus", "2",
                           "--gplus", "3", "--N", "256"])
print(codes, loaded, appendix_code, appendix_loaded, float_code)
"""


def test_reduction_does_not_load_spectral():
    # the exact layers stand below the spectral solvers
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptsphere.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, ptsphere.reduction; print('ptsphere.spectral' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_exact_commands_load_no_numpy_or_scipy():
    # a fresh interpreter: this one has numpy loaded by the other tests.  The
    # appendix's float Jacobian check loads numpy only
    src = os.path.dirname(os.path.dirname(os.path.abspath(ptsphere.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", EXACT_IMPORTS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0] [] 0 ['numpy'] 0"


# validate, spectrum, reduce and scan, with refused flags (exit 2 from main)
# and an argparse error (SystemExit 2) between them; the scan at N = 64
# misses its closed forms by more than --tol-match (exit 1)
PARSER_SEQUENCE = [
    ["validate", "--model", "su2ab"],
    ["spectrum", "--model", "s1", "--a", "2", "--b", "1", "--gminus", "2", "--gplus", "3",
     "--N", "64"],
    ["validate", "--model", "su2ab", "--k1", "1"],
    ["reduce", "--model", "su2ab", "--seed", "5"],
    ["spectrum", "--model", "s1", "--a", "2", "--b", "1", "--ell3", "2"],
    ["scan", "--model", "lambda", "--lambda2", "0.1:0.2:0.1", "--N", "64"],
    ["reduce", "--model", "su2ab", "--seed", "five"],
    ["validate", "--model", "nilpotent"],
]


def _outcomes(capsys):
    out = []
    for argv in PARSER_SEQUENCE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_one_parser_serves_every_call(capsys, monkeypatch):
    assert build_parser() is build_parser()
    kept = _outcomes(capsys)
    assert [code for code, _, _ in kept] == [0, 0, 2, 0, 2, 1, 2, 0]
    assert "does not take --k1" in kept[2][2] and "invalid int value" in kept[6][2]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert _outcomes(capsys) == kept
