"""Command-line front end.

Subcommands: validate | reduce | verify | spectrum | scan.  Exact model
parameters are parsed from "p/q" text so the algebraic pipeline stays exact;
grid bounds and tolerances are floats.  reduce and verify each list their
identity checks, and _run_identity makes each report one row.  spectrum reads
a model's flags, needed flags and solver off its SPECTRUM_MODELS row.
spectrum and scan judge every report through _spectrum_rows: at --tol-match
when it is given, else at the report's own tol, which its solver sets.
Exit status: 0 all requested checks pass, 1 any check fails, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .errors import BadCouplings, ParamOutOfRange, PtsphereError, SingularPotential
from .masa import (
    CATALOG_NAMES,
    bounded_rational,
    catalog_masa,
    classify_pt,
    load_masa_file,
    validate_masa,
)
from . import reduction
from . import spectral
from .phase import DEFAULT_SEED

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2
# accepted --N range of spectrum and scan (--K: 1..MAX_GRID_N)
MAX_GRID_N = 65536
# most points a scan --lambda2 grid may have (the default grid has 14)
MAX_SCAN_POINTS = 1000
# the model-parameter flags of spectrum; each model reads some of them
SPECTRUM_FLAGS = "--a --b --k1 --k2 --gminus --gplus --ell3 --composite --alpha --q --N --K"


class ConfigError(Exception):
    pass


def _frac(text: str) -> Fraction:
    # catalog_masa bounds its own parameters; the spectral flags need the
    # bound here
    try:
        return bounded_rational(text)
    except (ValueError, PtsphereError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_grid(args):
    # fills in --N and --K (default 512 and LOWEST_K) where a command reads them, and checks them
    args.N = 512 if args.N is None else args.N
    args.K = spectral.LOWEST_K if args.K is None else args.K
    for flag, value, low in (("--N", args.N, 2), ("--K", args.K, 1)):
        if not low <= value <= MAX_GRID_N:
            raise ConfigError(f"{flag} must be between {low} and {MAX_GRID_N}, got {value}")


def _tol_match(args) -> float | None:
    # the --tol-match given, checked; None judges each report at its own tol
    if args.tol_match is not None and not (math.isfinite(args.tol_match) and args.tol_match >= 0):
        raise ConfigError(f"--tol-match must be finite and non-negative, got {args.tol_match}")
    return args.tol_match


def _given(args, flags: str) -> dict:
    # each flag of flags given on the command line, with its value
    return {f: getattr(args, f[2:]) for f in flags.split() if getattr(args, f[2:]) is not None}


def _solved(solve, given: dict):
    # a solver's refusal of its input is a configuration error naming the flags given
    try:
        return solve()
    except (BadCouplings, ParamOutOfRange, SingularPotential) as exc:
        named = ", ".join(f"{flag} {value}" for flag, value in given.items())
        raise ConfigError(f"{named}: {exc}") from exc


def _build_masa(args):
    if args.masa:
        given = [f"--{name}" for name in ("model", "a", "b", "lambda2")
                 if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"--masa takes its model from the file, not from {' '.join(given)}")
        try:
            return load_masa_file(args.masa)
        except KeyError as exc:
            raise ConfigError(f"MASA file {args.masa!r} has no field {exc}") from exc
        except (OSError, ValueError, TypeError, PtsphereError) as exc:
            raise ConfigError(f"cannot load MASA file {args.masa!r}: {exc}") from exc
    model = args.model
    if model is None:
        raise ConfigError("either --model or --masa is required")
    if model not in CATALOG_NAMES:
        raise ConfigError(f"unknown model {model!r}; choose from {CATALOG_NAMES}")
    # only the parameters given; catalog_masa holds the defaults
    params = {
        name: _frac(text)
        for name, text in (("a", args.a), ("b", args.b), ("lambda2", args.lambda2))
        if text is not None
    }
    try:
        return catalog_masa(model, **params)
    except PtsphereError as exc:
        raise ConfigError(str(exc)) from exc


def _base_report(args) -> dict:
    # the seed and grid a command read, filled in where it read them;
    # spectrum and scan add the tol_match they judged against
    rep = {"version": __version__}
    for key, name in (("seed", "seed"), ("grid_N", "N"), ("grid_K", "K")):
        if getattr(args, name, None) is not None:
            rep[key] = getattr(args, name)
    return rep


def _emit(args, doc, csv_rows=None, csv_header=None):
    # csv_rows: only spectrum and scan pass them, and only they take --format
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------------


def _classify_pt(doc, masa):
    # the PT signs under the MASA's parity, or why there are none; no exit status reads it
    if masa.parity is not None:
        try:
            doc["pt_classification"] = list(classify_pt(masa, masa.parity))
        except PtsphereError as exc:
            doc["pt_classification"] = f"failed: {exc}"


def cmd_validate(args) -> int:
    masa = _build_masa(args)
    rep = validate_masa(masa)
    doc = _base_report(args)
    doc["masa_valid"] = rep.passed
    doc["symmetric"] = rep.symmetric_ok
    doc["commuting"] = rep.commuting_ok
    doc["independent"] = rep.independent_ok
    doc["failures"] = rep.failures
    _classify_pt(doc, masa)
    _emit(args, doc)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _validated(args, masa):
    """The one gate of reduce and verify: their report begun with masa_valid,
    and whether masa is valid.  An invalid MASA's report, with its failures,
    is printed here, and the command runs no check."""
    rep = validate_masa(masa)
    doc = _base_report(args)
    doc["masa_valid"] = rep.passed
    if not rep.passed:
        doc["failures"] = rep.failures
        _emit(args, doc)
    return doc, rep.passed


def _run_identity(doc, checks, masa) -> bool:
    """doc[key] from the report of check(masa, **kw), which passed or failed,
    for each (key, check, kw) of checks in order; True if all passed."""
    reports = [(key, check(masa, **kw)) for key, check, kw in checks]
    doc.update((key, {"passed": r.passed, "trials": r.trials, "detail": r.detail})
               for key, r in reports)
    return all(r.passed for _, r in reports)


def cmd_reduce(args) -> int:
    masa = _build_masa(args)
    # keyed on the MASA built: a --masa file has no entry, so no relation and no racah
    model = reduction.MODELS.get(masa.name, reduction.Model(None))
    # zhat_eq_k is symbolic: the seed is read, and echoed, only beside a sampled check
    if model.relations or model.racah:
        args.seed = DEFAULT_SEED if args.seed is None else args.seed
    elif args.seed is not None:
        source = f"--masa {args.masa}" if args.masa else f"--model {args.model}"
        raise ConfigError(f"--seed decides nothing: reduce samples no point for {source}")
    # the checks the entry picks: (key, check, keywords), each check of masa
    checks, seed = [("zhat_eq_k", reduction.verify_masa_reduction, {})], {"seed": args.seed}
    if "sum_relation" in model.relations:
        checks.append(("casimir_projection", reduction.casimir_projection_report, seed))
    checks += [(key, reduction.verify_relation, {**seed, "key": key}) for key in model.relations]
    if model.racah:
        checks.append(("racah", reduction.racah_structure_report, {**seed, "with_fits": False}))
    doc, valid = _validated(args, masa)
    if not valid:
        return EXIT_FAIL
    _classify_pt(doc, masa)
    sysr = reduction.build_hamiltonian(masa)
    doc["potential"] = repr(sysr.potential)
    doc["hamiltonian"] = repr(sysr.hamiltonian)
    doc["integrals"] = [name for name, _ in sysr.integrals]
    ok = _run_identity(doc.setdefault("identities", {}), checks, masa)
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    masa = _build_masa(args)
    # the homomorphism check always samples
    args.seed = DEFAULT_SEED if args.seed is None else args.seed
    seed = {"seed": args.seed}
    checks = [("conservation", reduction.verify_conservation, seed),
              ("bracket_preservation", reduction.verify_homomorphism, seed)]
    if masa.parity is not None:
        checks.append(("pt_invariance", reduction.verify_pt_invariance, {}))
    if args.appendix:
        checks.append(("appendix_residuals", reduction.appendix_report, seed))
    doc, valid = _validated(args, masa)
    if not valid:
        return EXIT_FAIL
    ok = _run_identity(doc, checks, masa)
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_FAIL


def _spectrum_rows(rep, tol_match):
    # the one judge of spectrum and scan: one row per eigenvalue of rep, beside
    # its match or blank when rep has none; tol (tol_match, else rep.tol); and
    # whether every match is within tol, which a NaN is not
    rows = [[i, z.real, z.imag, "", ""] for i, z in enumerate(rep.eigenvalues)]
    for row, (cand, dev, _) in zip(rows, rep.matches):
        row[3:] = [cand, dev]
    tol = rep.tol if tol_match is None else tol_match
    return rows, tol, all(rel <= tol for *_, rel in rep.matches)


def _solve_s1(args):
    # s1 alone takes one of two coupling pairs, so it checks them itself
    a, b = float(_frac(args.a or "2")), float(_frac(args.b or "1"))
    pairs = [(args.k1, args.k2), (args.gminus, args.gplus)]
    given = [pair for pair in pairs if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ConfigError("s1 spectrum needs exactly one coupling pair:"
                          " --k1 and --k2, or --gminus and --gplus")
    if args.k1 is not None:
        k1, k2 = complex(_frac(args.k1)), complex(_frac(args.k2))
    else:
        k1, k2 = spectral.invert_circle_couplings(a, b, _frac(args.gminus), _frac(args.gplus))
    return spectral.solve_periodic_s1(a, b, k1, k2, args.N, args.K)


# per spectrum model: the flags of SPECTRUM_FLAGS it reads, those it needs,
# and solve(args) -> spectral.SpectrumReport, whose tol its solver sets
SPECTRUM_MODELS = {
    "s1": ("--a --b --k1 --k2 --gminus --gplus --N --K", "", _solve_s1),
    "poschl_teller": (
        "--gminus --gplus --N --K", "--gminus --gplus",
        lambda args: spectral.solve_poschl_teller(
            float(_frac(args.gminus)), float(_frac(args.gplus)), args.N, args.K),
    ),
    "chi": (
        "--ell3 --composite --N --K", "--ell3 --composite",
        lambda args: spectral.solve_chi_equation(
            float(_frac(args.ell3)), float(_frac(args.composite)), args.N, args.K),
    ),
    "degenerate": (
        "--alpha --q", "--alpha --q",
        lambda args: spectral.degenerate_level(float(_frac(args.alpha)), args.q),
    ),
}


def cmd_spectrum(args) -> int:
    if args.model not in SPECTRUM_MODELS:
        raise ConfigError(f"unknown spectrum model {args.model!r}")
    reads, needs, solve = SPECTRUM_MODELS[args.model]
    given = _given(args, SPECTRUM_FLAGS)
    unread = [flag for flag in given if flag not in reads.split()]
    if unread:
        raise ConfigError(f"spectrum --model {args.model} does not take {' '.join(unread)}")
    if any(flag not in given for flag in needs.split()):
        raise ConfigError(f"{args.model} needs {' and '.join(needs.split())}")
    if "--N" in reads:
        _read_grid(args)
    tol_match = _tol_match(args)
    rep = _solved(lambda: solve(args), given)
    rows, tol, ok = _spectrum_rows(rep, tol_match)
    doc = _base_report(args)
    doc.update(tol_match=tol, model=rep.model, phase=rep.phase, rows=rows,
               max_imag=rep.max_imag, notes=rep.notes)
    _emit(args, doc, rows, ["index", "re_E", "im_E", "closed_form", "deviation"])
    return EXIT_OK if ok else EXIT_FAIL


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
        raise ConfigError(f"grid {text!r} needs finite bounds and a positive finite step")
    if stop < start:
        raise ConfigError(f"grid {text!r} has stop below start, so it has no point")
    if (stop - start) / step >= MAX_SCAN_POINTS:
        raise ConfigError(f"grid {text!r} has more than {MAX_SCAN_POINTS} points")
    out, v = [], start
    while v <= stop + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def cmd_scan(args) -> int:
    if args.model != "lambda":
        raise ConfigError("scan currently supports --model lambda")
    given = _given(args, "--lambda2 --k1 --k2 --k3 --N --K")
    _read_grid(args)
    tol_match = _tol_match(args)
    grid = _parse_grid(args.lambda2 or "0.05:0.7:0.05")
    ks = (
        float(_frac(args.k1 or "1")),
        float(_frac(args.k2 or "3/2")),
        float(_frac(args.k3 or "1/2")),
    )
    reps = _solved(lambda: spectral.pt_phase_scan(grid, ks, N=args.N, K=args.K), given)
    doc = _base_report(args)
    # without --tol-match the sphere points' tol; lambda^2 = 1/2 keeps its own
    doc["tol_match"] = spectral.FD_LEVEL_TOL if tol_match is None else tol_match
    rows = [[lam2, rep.phase, rep.max_imag, "; ".join(rep.notes)] for lam2, rep in zip(grid, reps)]
    doc.update(k=list(ks), rows=rows)
    _emit(args, doc, rows, ["lambda2", "phase", "max_imag", "note"])
    ok = all(_spectrum_rows(rep, tol_match)[2] for rep in reps)
    return EXIT_OK if ok else EXIT_FAIL


# -- parser ---------------------------------------------------------------------


# the argparse settings of every flag that has any; a subcommand takes only
# the flags its cmd_* reads
FLAGS = {
    "--masa": {"help": "MASA JSON file"},
    "--q": {"type": int},
    "--seed": {"type": int},
    "--appendix": {"action": "store_true"},
    "--N": {"type": int},
    "--K": {"type": int},
    "--tol-match": {"type": float},
    "--format": {"choices": ("json", "csv"), "default": "json"},
}
_MASA_FLAGS = "--model --masa --a --b --lambda2 --out"
SUBCOMMANDS = {
    "validate": (cmd_validate, "MASA axioms and PT classification", _MASA_FLAGS),
    "reduce": (cmd_reduce, "potential, integrals, exact identities",
               f"{_MASA_FLAGS} --seed"),
    "verify": (cmd_verify, "conservation, brackets, PT, appendix",
               f"{_MASA_FLAGS} --seed --appendix"),
    "spectrum": (cmd_spectrum, "discretized spectra vs closed forms",
                 f"--model {SPECTRUM_FLAGS} --tol-match --out --format"),
    "scan": (cmd_scan, "phase labels over a lambda^2 grid",
             "--model --lambda2 --k1 --k2 --k3 --N --K --tol-match --out --format"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it costs about 1.7 ms, and
    parsing leaves it as it was."""
    p = argparse.ArgumentParser(prog="ptsphere", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in SUBCOMMANDS.items():
        # no abbreviations: a subcommand accepts its flags as spelled, no others
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            sp.add_argument(flag, **FLAGS.get(flag, {}))
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        if extra:
            raise ConfigError(
                f"{args.command} does not take {' '.join(extra)}"
                f" (see ptsphere {args.command} --help)"
            )
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PtsphereError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
