"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions and methods of the ptsphere
modules in LAYERS and rebinds each wrapper wherever a caller looks the name
up: the defining module, every ptsphere module that imported the name, and
the class for methods.  `uninstall()` restores the originals.

Module-level functions of the SPAN_LAYERS get one span each (name, start,
end, parent span).  Everything else, including the hot Exact and PhasePoly
methods, gets a count and time per name and per parent span.  Every
wrapper also keeps total time (outermost call of a name only, so recursion
is not counted twice) and self time (total minus wrapped children).
Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("exact", "phase", "reduction", "lie", "masa", "matrices", "spectral", "cli")
SPAN_LAYERS = ("cli", "reduction", "spectral", "matrices")

# arithmetic dunders that count as public methods; construction, hashing,
# comparison and printing are left alone
DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__matmul__",
}

# metric names the benchmark reports; every other name is module.Class.method
# or module.function
ALIASES = {
    "exact.Exact.__mul__": "exact.mul",
    "exact.Exact.__rmul__": "exact.mul",
    "exact.Exact.__add__": "exact.add",
    "exact.Exact.__radd__": "exact.add",
    "exact.Exact.inverse": "exact.inverse",
    "phase.PhasePoly.eval": "phase.poly_eval",
    "phase.PhasePoly.__mul__": "phase.poly_mul",
    "phase.PhaseRational.grad_at": "phase.grad_at",
    "phase.poisson_bracket_at": "phase.bracket_at",
    "phase.dirac_bracket_at": "phase.bracket_at",
    "phase.sample_vals": "phase.sample",
}

HARNESS = "harness.op"
FIELDS = {"calls": 0, "s": 1, "self_s": 2}  # layout of Tracer.stats values


def _value_bits(x):
    """Largest numerator + denominator bit length among an Exact's rationals,
    or None for a value without that representation."""
    parts = getattr(x, "_parts", None)
    if parts is None:
        return None
    bits = 0
    for pair in parts.values():
        for q in pair:
            if isinstance(q, Fraction):
                bits = max(bits, q.numerator.bit_length() + q.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Start a new pass: forget all counts, times and spans."""
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.by_parent = {}  # (parent span id, name) -> [calls, total_s]
        self.spans = []  # [id, parent id, name, start, end]
        self.extra = Counter()  # computed sizes
        self.eval_bits = Counter()  # bit length -> number of PhasePoly.eval results
        self.pole_samples = set()  # sample numbers whose evaluation hit a pole
        self._depth = Counter()
        self._child = []  # child time of each open call
        self._span_stack = [0]
        self._next_span = 1

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, name, is_span, hook=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = tr._child
            depth = tr._depth
            d = depth[name]
            depth[name] = d + 1
            sid = None
            if is_span:
                sid = tr._next_span
                tr._next_span += 1
                parent = tr._span_stack[-1]
                tr._span_stack.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ZeroDivisionError:
                # a pole: every caller that samples points discards this one
                drawn = tr.get("phase.sample", "calls")
                if drawn:
                    tr.pole_samples.add(drawn)
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                depth[name] = d
                if sid is not None:
                    tr._span_stack.pop()
                    tr.spans.append([sid, parent, name, t0, t1])
                else:
                    parent = tr._span_stack[-1]
                st = tr.stats.get(name)
                if st is None:
                    st = tr.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[2] += dt - inner
                if d == 0:
                    st[1] += dt
                key = (parent, name)
                bp = tr.by_parent.get(key)
                if bp is None:
                    bp = tr.by_parent[key] = [0, 0.0]
                bp[0] += 1
                bp[1] += dt
            if hook is not None:
                hook(tr, result)
            return result

        return wrapper

    def call(self, fn):
        """Run one benchmark operation as a root span."""
        return self._wrap(fn, HARNESS, True)()

    # -- installing -------------------------------------------------------------

    def install(self):
        hooks = {
            "matrices.eig_dense": _eig_hook,
            "spectral.fourier_matrix": _fourier_hook,
            "phase.poly_eval": _eval_hook,
        }
        modules = [importlib.import_module(f"ptsphere.{m}") for m in LAYERS]
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(inspect.unwrap(obj)):  # lru_cache'd ones too
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    w = self._wrap(obj, name, layer in SPAN_LAYERS, hooks.get(name))
                    replaced[id(obj)] = (obj, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, hooks)
        # rebind module-level functions wherever their callers find them
        owners = [m for n, m in sys.modules.items() if n == "ptsphere" or n.startswith("ptsphere.")]
        owners += [m for n, m in sys.modules.items() if n == "workloads"]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, hit[1])

    def _wrap_class(self, layer, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            kind = None
            fn = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind, fn = type(raw), raw.__func__
            if not inspect.isfunction(fn):
                continue
            name = ALIASES.get(f"{layer}.{cls.__name__}.{attr}", f"{layer}.{cls.__name__}.{attr}")
            w = self._wrap(fn, name, False, hooks.get(name))
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(w) if kind else w)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading a pass ---------------------------------------------------------

    def get(self, name, field):
        """calls, s (total) or self_s of one traced name; 0 when never called."""
        return self.stats.get(name, (0, 0.0, 0.0))[FIELDS[field]]

    def self_by_module(self):
        out = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def snapshot(self, pass_s):
        """Every per-layer metric of the pass just traced; None means n/a."""
        values = {name: getter(self, pass_s) for name, _, _, getter in PER_LAYER}
        values["trace.pass_s"] = pass_s
        return values

    def dump(self):
        """Counts, times and spans of the last traced pass, JSON-ready."""
        return {
            "stats": {k: {"calls": c, "s": s, "self_s": ss} for k, (c, s, ss) in self.stats.items()},
            "by_parent_span": [[p, n, c, s] for (p, n), (c, s) in self.by_parent.items()],
            "spans": self.spans,
            "computed": dict(self.extra),
            "eval_bits": dict(self.eval_bits),
        }


def _eig_hook(tr, result):
    tr.extra["matrices.eig_dense.bytes"] += 16 * len(result) ** 2


def _fourier_hook(tr, result):
    tr.extra["spectral.fourier_matrix.dim"] += result[0].shape[0]


def _eval_hook(tr, result):
    bits = _value_bits(result)
    if bits is not None:
        tr.eval_bits[bits] += 1


# -- per-layer metrics ------------------------------------------------------------------


def _stat(name, field):
    return lambda tr, pass_s: tr.get(name, field)


def _sum_s(*names):
    return lambda tr, pass_s: sum(tr.get(n, "s") for n in names)


def _useful_ratio(tr, pass_s):
    drawn = tr.get("phase.sample", "calls")
    return (drawn - len(tr.pole_samples)) / drawn if drawn else None


def _median_bits(tr, pass_s):
    bits = sorted(tr.eval_bits.elements())
    return statistics.median(bits) if bits else None


def _extra(name):
    return lambda tr, pass_s: tr.extra[name]


def _share(module):
    return lambda tr, pass_s: tr.self_by_module()[module] / pass_s


def _coverage(tr, pass_s):
    return sum(tr.self_by_module().values()) / pass_s


MODULES = LAYERS + ("harness",)

# (metric, unit, better, getter); the README maps each to the end-to-end
# metric and workload it should move
PER_LAYER = [
    ("exact.mul.calls", "count", "lower", _stat("exact.mul", "calls")),
    ("exact.mul.s", "s", "lower", _stat("exact.mul", "s")),
    ("exact.add.calls", "count", "lower", _stat("exact.add", "calls")),
    ("exact.add.s", "s", "lower", _stat("exact.add", "s")),
    ("exact.inverse.calls", "count", "lower", _stat("exact.inverse", "calls")),
    ("exact.inverse.s", "s", "lower", _stat("exact.inverse", "s")),
    ("phase.poly_eval.calls", "count", "lower", _stat("phase.poly_eval", "calls")),
    ("phase.poly_eval.self_s", "s", "lower", _stat("phase.poly_eval", "self_s")),
    ("phase.grad_at.calls", "count", "lower", _stat("phase.grad_at", "calls")),
    ("phase.grad_at.self_s", "s", "lower", _stat("phase.grad_at", "self_s")),
    ("phase.bracket_at.calls", "count", "lower", _stat("phase.bracket_at", "calls")),
    ("phase.bracket_at.self_s", "s", "lower", _stat("phase.bracket_at", "self_s")),
    ("phase.sample.calls", "count", "lower", _stat("phase.sample", "calls")),
    ("phase.sample.useful_ratio", "ratio", "higher", _useful_ratio),
    ("phase.eval_bits.p50", "bits", "lower", _median_bits),
    ("phase.poly_mul.calls", "count", "lower", _stat("phase.poly_mul", "calls")),
    ("phase.poly_mul.self_s", "s", "lower", _stat("phase.poly_mul", "self_s")),
    ("phase.poisson_bracket.s", "s", "lower", _stat("phase.poisson_bracket", "s")),
    ("reduction.build_hamiltonian.calls", "count", "lower",
     _stat("reduction.build_hamiltonian", "calls")),
    ("reduction.build_hamiltonian.s", "s", "lower", _stat("reduction.build_hamiltonian", "s")),
    ("reduction.momentum_map.calls", "count", "lower", _stat("reduction.momentum_map", "calls")),
    ("reduction.momentum_map.s", "s", "lower", _stat("reduction.momentum_map", "s")),
    ("reduction.integrals_catalog.s", "s", "lower", _stat("reduction.integrals_catalog", "s")),
    ("reduction.project_env_element.s", "s", "lower",
     _stat("reduction.project_env_element", "s")),
    ("reduction.verify_homomorphism.s", "s", "lower",
     _stat("reduction.verify_homomorphism", "s")),
    ("reduction.verify_conservation.s", "s", "lower",
     _stat("reduction.verify_conservation", "s")),
    ("reduction.verify_sum_relation.s", "s", "lower",
     _stat("reduction.verify_sum_relation", "s")),
    ("reduction.casimir_projection_report.s", "s", "lower",
     _stat("reduction.casimir_projection_report", "s")),
    ("reduction.racah_structure_report.s", "s", "lower",
     _stat("reduction.racah_structure_report", "s")),
    ("reduction.verify_masa_reduction.s", "s", "lower",
     _stat("reduction.verify_masa_reduction", "s")),
    ("reduction.jacobian_check.s", "s", "lower", _stat("reduction.jacobian_check", "s")),
    ("lie.casimir_element.s", "s", "lower", _stat("lie.casimir_element", "s")),
    ("lie.pbw_normal_form.calls", "count", "lower", _stat("lie.pbw_normal_form", "calls")),
    ("masa.validate_masa.s", "s", "lower", _stat("masa.validate_masa", "s")),
    ("masa.classify_pt.s", "s", "lower", _stat("masa.classify_pt", "s")),
    ("masa.catalog_masa.s", "s", "lower", _stat("masa.catalog_masa", "s")),
    ("matrices.eig_dense.calls", "count", "lower", _stat("matrices.eig_dense", "calls")),
    ("matrices.eig_dense.s", "s", "lower", _stat("matrices.eig_dense", "s")),
    ("matrices.eig_dense.bytes", "B", "lower", _extra("matrices.eig_dense.bytes")),
    ("spectral.fourier_matrix.s", "s", "lower", _stat("spectral.fourier_matrix", "s")),
    ("spectral.fourier_matrix.dim", "rows", "lower", _extra("spectral.fourier_matrix.dim")),
    ("spectral.solve_periodic_s1.self_s", "s", "lower",
     _stat("spectral.solve_periodic_s1", "self_s")),
    ("spectral.fd_solve.s", "s", "lower",
     _sum_s("spectral.solve_poschl_teller", "spectral.solve_chi_equation")),
    ("spectral.pt_phase_scan.s", "s", "lower", _stat("spectral.pt_phase_scan", "s")),
    ("spectral.metamorphosis_check.s", "s", "lower", _stat("spectral.metamorphosis_check", "s")),
    ("cli.main.calls", "count", "lower", _stat("cli.main", "calls")),
    ("cli.main.self_s", "s", "lower", _stat("cli.main", "self_s")),
]
PER_LAYER += [(f"self_share.{m}", "ratio", "lower", _share(m)) for m in MODULES]
PER_LAYER += [("trace.self_coverage", "ratio", "higher", _coverage)]

# computed from sizes, not measured
COMPUTED = ("matrices.eig_dense.bytes", "spectral.fourier_matrix.dim", "phase.eval_bits.p50")

# metrics that exist only in the summary of all traced passes
SUMMARY = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.counts_repeat_ratio", "ratio", "higher"),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER} | {n: u for n, u, _ in SUMMARY}


def layer_metrics(snaps, untraced_pass_s):
    """Medians over the traced passes, plus the summary metrics and notes."""
    metrics, na = {}, []
    for name, unit, _, _ in PER_LAYER:
        vals = [s[name] for s in snaps if s[name] is not None]
        if not vals:
            na.append(name)
        metrics[name] = (statistics.median(vals) if vals else 0.0, unit)
    traced_s = statistics.median(s["trace.pass_s"] for s in snaps)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_pass_s, "ratio")
    counts = [name for name, unit, _, _ in PER_LAYER if unit == "count"]
    varying = [c for c in counts if len({s[c] for s in snaps}) > 1]
    metrics["trace.counts_repeat_ratio"] = ((len(counts) - len(varying)) / len(counts), "ratio")
    shares = ", ".join(f"{m} {metrics[f'self_share.{m}'][0]:.3f}" for m in MODULES)
    notes = [
        f"{len(snaps)} traced passes, median {traced_s:.4f} s; untraced median "
        f"{untraced_pass_s:.4f} s; overhead ratio {traced_s / untraced_pass_s:.3f}",
        f"self-time share per module: {shares}",
        "self times of all wrapped calls plus the harness cover "
        f"{metrics['trace.self_coverage'][0]:.4f} of the traced pass time",
        ("counts that repeat exactly in every traced pass: all"
         if not varying else "counts that differ between traced passes: " + ", ".join(varying)),
        "computed, not measured: " + ", ".join(COMPUTED)
        + " (eig_dense.bytes = 16 dim^2 summed; fourier_matrix.dim summed; "
          "eval_bits = numerator + denominator bits of PhasePoly.eval results)",
    ]
    if na:
        notes.append("n/a on this workload (printed as 0): " + ", ".join(na))
    return metrics, notes
