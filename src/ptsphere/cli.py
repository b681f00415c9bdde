"""Command-line front end.

Subcommands: validate | reduce | verify | spectrum | scan.  Exact model
parameters are parsed from "p/q" text so the algebraic pipeline stays exact;
grid bounds and tolerances are floats.  Exit status: 0 all requested checks
pass, 1 any check fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import PtsphereError, RelationFailed
from .masa import CATALOG_NAMES, catalog_masa, classify_pt, load_masa_file, validate_masa
from . import reduction
from . import spectral

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2
# largest |numerator| and denominator of a rational parameter: radicals of
# the parameters are factored by trial division, so larger ones can run for
# minutes before any check starts
MAX_PARAM_INT = 10**6


class ConfigError(Exception):
    pass


def _frac(text: str) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r}") from exc
    if abs(q.numerator) > MAX_PARAM_INT or q.denominator > MAX_PARAM_INT:
        raise ConfigError(
            f"{text!r}: numerator and denominator must be at most {MAX_PARAM_INT}"
            " in absolute value"
        )
    return q


def _build_masa(args):
    if getattr(args, "masa", None):
        try:
            return load_masa_file(args.masa)
        except KeyError as exc:
            raise ConfigError(f"MASA file {args.masa!r} has no field {exc}") from exc
        except (OSError, ValueError, TypeError, PtsphereError) as exc:
            raise ConfigError(f"cannot load MASA file {args.masa!r}: {exc}") from exc
    model = getattr(args, "model", None)
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
    rep = {"version": __version__, "seed": args.seed}
    for name in ("N", "K"):
        if getattr(args, name, None) is not None:
            rep[f"grid_{name}"] = getattr(args, name)
    for name in ("tol_real", "tol_match"):
        if getattr(args, name, None) is not None:
            rep[name] = getattr(args, name)
    return rep


def _emit(args, doc, csv_rows=None, csv_header=None):
    if args.format == "csv":
        if csv_rows is None:
            raise ConfigError("csv output is only available for spectrum and scan")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    masa = _build_masa(args)
    rep = validate_masa(masa)
    doc = _base_report(args)
    doc["masa_valid"] = rep.passed
    doc["symmetric"] = rep.symmetric_ok
    doc["commuting"] = rep.commuting_ok
    doc["independent"] = rep.independent_ok
    doc["failures"] = [list(map(str, f)) for f in rep.failures]
    if masa.parity is not None:
        try:
            doc["pt_classification"] = list(classify_pt(masa, masa.parity))
        except PtsphereError as exc:
            doc["pt_classification"] = f"failed: {exc}"
    _emit(args, doc)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _run_identity(doc, key, fn):
    try:
        rep = fn()
        doc[key] = {"passed": rep.passed, "trials": rep.trials, "detail": rep.detail}
        return rep.passed
    except RelationFailed as exc:
        doc[key] = {"passed": False, "detail": str(exc)}
        return False


def cmd_reduce(args) -> int:
    if args.racah and (args.masa or args.model != "lambda"):
        # cartan_od and nilpotent are correct models on which it is false
        raise ConfigError(
            "--racah checks T12 = -T13 = T23, which holds only for --model lambda"
        )
    masa = _build_masa(args)
    vrep = validate_masa(masa)
    doc = _base_report(args)
    doc["masa_valid"] = vrep.passed
    ok = vrep.passed
    if not vrep.passed:
        doc["failures"] = [list(map(str, f)) for f in vrep.failures]
        _emit(args, doc)
        return EXIT_FAIL
    if masa.parity is not None:
        doc["pt_classification"] = list(classify_pt(masa, masa.parity))
    sysr = reduction.build_hamiltonian(masa)
    doc["potential"] = repr(sysr.potential)
    doc["hamiltonian"] = repr(sysr.hamiltonian)
    doc["integrals"] = [name for name, _ in sysr.integrals]
    idents = {}
    ok &= _run_identity(idents, "zhat_eq_k", lambda: reduction.verify_masa_reduction(masa))
    if masa.name in ("su2ab", "lambda", "cartan_od", "nilpotent"):
        ok &= _run_identity(
            idents,
            "casimir_projection",
            lambda: reduction.casimir_projection_report(masa, seed=args.seed),
        )
        ok &= _run_identity(
            idents,
            "sum_relation",
            lambda: reduction.verify_sum_relation(masa, seed=args.seed),
        )
    if args.racah:
        def _racah():
            r = reduction.racah_structure_report(masa, seed=args.seed, with_fits=False)
            return reduction.RelationReport(
                "racah", r.antisymmetry_ok, r.trials, "T12 = -T13 = T23"
            )

        ok &= _run_identity(idents, "racah", _racah)
    doc["identities"] = idents
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    masa = _build_masa(args)
    doc = _base_report(args)
    ok = True
    ok &= _run_identity(
        doc, "conservation", lambda: reduction.verify_conservation(masa, seed=args.seed)
    )
    ok &= _run_identity(
        doc,
        "bracket_preservation",
        lambda: reduction.verify_homomorphism(masa, seed=args.seed),
    )
    if masa.parity is not None:
        sysr = reduction.build_hamiltonian(masa)
        V = sysr.potential
        img = V.apply_pt(masa.parity)
        inv = (V.num * img.den - img.num * V.den).is_zero()
        doc["pt_invariance"] = {"passed": inv}
        ok &= inv
    if args.appendix:
        import random

        rng = random.Random(args.seed)
        worst = 0.0
        for _ in range(10):
            x = [rng.uniform(-0.5, 0.5) for _ in range(masa.n)]
            s = [rng.uniform(-1.0, 1.0) for _ in range(masa.n)]
            jc = reduction.jacobian_check(masa, x, s)
            worst = max(worst, max(jc.residuals.values()))
        passed = worst <= 1e-9
        doc["appendix_residuals"] = {"passed": passed, "max_residual": worst}
        ok &= passed
    _emit(args, doc)
    return EXIT_OK if ok else EXIT_FAIL


def _spectrum_rows(rep, tol_match):
    rows, ok = [], True
    for i, z in enumerate(rep.eigenvalues[: max(len(rep.matches), 8)]):
        m = None
        for zz, c, d, r in rep.matches:
            if zz == z:
                m = (c, d, r)
                break
        if m is None:
            rows.append([i, z.real, z.imag, "", ""])
        else:
            c, d, r = m
            rows.append([i, z.real, z.imag, c, d])
            if r > tol_match:
                ok = False
    return rows, ok


def cmd_spectrum(args) -> int:
    doc = _base_report(args)
    header = ["index", "re_E", "im_E", "closed_form", "deviation"]
    if args.model == "s1":
        a, b = _frac(args.a or "2"), _frac(args.b or "1")
        if args.k1 is not None and args.k2 is not None:
            k1, k2 = complex(_frac(args.k1)), complex(_frac(args.k2))
        elif args.gminus is not None and args.gplus is not None:
            k1, k2 = spectral.invert_circle_couplings(
                float(a), float(b), _frac(args.gminus), _frac(args.gplus)
            )
        else:
            raise ConfigError("s1 spectrum needs --k1/--k2 or --gminus/--gplus")
        rep = spectral.solve_periodic_s1(
            float(a), float(b), k1, k2, args.N, args.K, args.tol_real
        )
        tol_match = args.tol_match or 1e-6
    elif args.model == "poschl_teller":
        if args.gminus is None or args.gplus is None:
            raise ConfigError("poschl_teller needs --gminus and --gplus")
        rep = spectral.solve_poschl_teller(
            float(_frac(args.gminus)), float(_frac(args.gplus)), args.N, args.K
        )
        tol_match = args.tol_match or 1e-3
    elif args.model == "chi":
        if args.ell3 is None or args.composite is None:
            raise ConfigError("chi needs --ell3 and --composite")
        rep = spectral.solve_chi_equation(
            float(_frac(args.ell3)), float(_frac(args.composite)), args.N, args.K
        )
        tol_match = args.tol_match or 1e-3
    elif args.model == "degenerate":
        if args.alpha is None or args.q is None:
            raise ConfigError("degenerate needs --alpha and --q")
        alpha, q = float(_frac(args.alpha)), int(args.q)
        resid = spectral.bessel_ode_residual(alpha, q, 0.5)
        E = q * (q + 1)
        doc["model"] = "degenerate"
        doc["phase"] = "degenerate"
        doc["bessel_ode_residual"] = resid
        rows = [[0, float(E), 0.0, float(E), resid]]
        doc["rows"] = rows
        _emit(args, doc, rows, header)
        return EXIT_OK if resid <= 1e-10 else EXIT_FAIL
    else:
        raise ConfigError(f"unknown spectrum model {args.model!r}")
    rows, ok = _spectrum_rows(rep, tol_match)
    doc["model"] = rep.model
    doc["phase"] = rep.phase
    doc["max_imag"] = rep.max_imag
    doc["notes"] = rep.notes
    doc["rows"] = rows
    _emit(args, doc, rows, header)
    return EXIT_OK if ok else EXIT_FAIL


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ConfigError("grid step must be positive")
    out, v = [], start
    while v <= stop + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def cmd_scan(args) -> int:
    if args.model != "lambda":
        raise ConfigError("scan currently supports --model lambda")
    grid = _parse_grid(args.lambda2 or "0.05:0.7:0.05")
    ks = (
        float(_frac(args.k1 or "1")),
        float(_frac(args.k2 or "3/2")),
        float(_frac(args.k3 or "1/2")),
    )
    reps = spectral.pt_phase_scan(grid, ks, N=args.N, K=args.K, tol=args.tol_real)
    doc = _base_report(args)
    doc["k"] = list(ks)
    rows = []
    for lam2, rep in zip(grid, reps):
        note = "; ".join(rep.notes)
        rows.append([lam2, rep.phase, rep.max_imag, note])
    doc["rows"] = rows
    _emit(args, doc, rows, ["lambda2", "phase", "max_imag", "note"])
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptsphere", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spectral_opts=False):
        sp.add_argument("--model")
        sp.add_argument("--masa", help="MASA JSON file")
        sp.add_argument("--a")
        sp.add_argument("--b")
        sp.add_argument("--lambda2")
        sp.add_argument("--k1")
        sp.add_argument("--k2")
        sp.add_argument("--k3")
        sp.add_argument("--seed", type=int, default=20230411)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if spectral_opts:
            sp.add_argument("--N", type=int, default=512)
            sp.add_argument("--K", type=int, default=8)
            sp.add_argument("--tol-real", dest="tol_real", type=float, default=1e-8)
            sp.add_argument("--tol-match", dest="tol_match", type=float)

    sp = sub.add_parser("validate", help="MASA axioms and PT classification")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("reduce", help="potential, integrals, exact identities")
    common(sp)
    sp.add_argument("--racah", action="store_true")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("verify", help="conservation, brackets, PT, appendix")
    common(sp)
    sp.add_argument("--appendix", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("spectrum", help="discretized spectra vs closed forms")
    common(sp, spectral_opts=True)
    sp.add_argument("--gminus")
    sp.add_argument("--gplus")
    sp.add_argument("--ell3")
    sp.add_argument("--composite")
    sp.add_argument("--alpha")
    sp.add_argument("--q", type=int)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("scan", help="phase labels over a lambda^2 grid")
    common(sp, spectral_opts=True)
    sp.set_defaults(fn=cmd_scan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PtsphereError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
