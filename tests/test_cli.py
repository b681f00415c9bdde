import json

import pytest

from ptsphere import reduction
from ptsphere.cli import main

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


# su2ab with a = 2, b = 1, as save_masa_file writes it: a valid MASA
SU2AB_MASA = {
    "n": 2,
    "basis": "u2",
    "generators": [
        [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}, {"re": "0", "im": "0"}],
        [{"re": "0", "im": "0"}, {"re": "0", "im": "-1"}, {"re": "2", "im": "0"}],
    ],
    "parity": [1, -2],
}


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
    assert doc["seed"] == 20230411
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
    ],
    ids=["missing", "not_json", "no_generators", "catalog_name"],
)
def test_bad_masa_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "masa.json"
    if content is not None:
        path.write_text(content)
    code = main([command, "--masa", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert captured.out == ""


def test_unknown_model_exits_2(capsys):
    assert main(["validate", "--model", "nope"]) == 2


def test_missing_spectrum_couplings_exits_2(capsys):
    assert main(["spectrum", "--model", "s1"]) == 2


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


@pytest.mark.parametrize("model", ["cartan_od", "nilpotent", "su2ab"])
def test_racah_outside_lambda_exits_2(capsys, model):
    # T12 = -T13 = T23 holds for the lambda family only
    assert main(["reduce", "--model", model, "--racah"]) == 2
    captured = capsys.readouterr()
    assert "lambda" in captured.err
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
    # without the bound, factoring the radicals of this value runs past 10 s
    argv = ["validate", "--model", "lambda", "--lambda2", "1000000000039/3000000000091"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "1000000000039/3000000000091" in captured.err
    assert captured.out == ""
    # the bound itself is accepted
    assert main(["validate", "--model", "lambda", "--lambda2", "1/1000000"]) == 0


def test_seed_reaches_sum_relation_and_conservation(capsys, monkeypatch):
    seeds = []
    real = reduction.func_vanishes_on_constraint

    def recording(func, n, trials, *seed):
        seeds.append(seed)
        return real(func, n, trials, *seed)

    monkeypatch.setattr(reduction, "func_vanishes_on_constraint", recording)
    su2ab = ["--model", "su2ab", "--a", "2", "--b", "1"]
    assert main(["reduce", *su2ab, "--seed", "5"]) == 0
    assert seeds == [(5,)]  # the sum relation
    seeds.clear()
    assert main(["verify", *su2ab, "--seed", "7"]) == 0
    assert seeds and set(seeds) == {(7,)}  # one call per conserved integral


def test_reduce_defaults_come_from_the_catalog(capsys):
    _, default = _run(["reduce", "--model", "cartan_od"], capsys)
    _, explicit = _run(["reduce", "--model", "cartan_od", "--a", "1", "--b", "1/2"], capsys)
    assert default == explicit


def test_verify_command(capsys):
    code, out = _run(["verify", "--model", "su2ab", "--a", "2", "--b", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["conservation"]["passed"] is True
    assert doc["bracket_preservation"]["passed"] is True
    assert doc["pt_invariance"]["passed"] is True


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
    code, out = _run(
        ["spectrum", "--model", "degenerate", "--alpha", "2", "--q", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bessel_ode_residual"] <= 1e-10


def test_scan_restricted_to_lambda_family(capsys):
    assert main(["scan", "--model", "su2ab"]) == 2


def test_scan_small_grid(capsys):
    code, out = _run(
        ["scan", "--model", "lambda", "--lambda2", "0.1:0.3:0.1", "--N", "128"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r[1] == "exact" for r in doc["rows"])
    assert len(doc["rows"]) >= 2


def test_reports_are_deterministic(capsys):
    _, out1 = _run(["validate", "--model", "nilpotent"], capsys)
    _, out2 = _run(["validate", "--model", "nilpotent"], capsys)
    assert out1 == out2
