"""Spans around centerfocus's public functions, wrapped from outside.

Each function is replaced at the name its callers resolve (for example
`centerfocus.flow.solve_ivp`, which `flow._solve` looks up in its module
globals), so the program itself is not edited.  Spans are kept in memory
as [name, start, end, parent, doc, tag] and written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children; children of one span never overlap, because the program
is single-threaded, so the self times of a document's spans add up to its
root span.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import gen

# (module, class or None, attribute, span name).  Names start with the
# layer (module) they belong to; `cli.main` is the per-document root.
TARGETS = [
    ("centerfocus.cli", None, "parse_spec", "cli.parse_spec"),
    ("centerfocus.cli", None, "render_report", "cli.render_report"),
    ("centerfocus.series", "Poly2", "__mul__", "series.poly_mul"),
    ("centerfocus.center", None, "lie_derivative", "series.lie_derivative"),
    ("centerfocus.series", "Poly2", "substitute_linear",
     "series.substitute_linear"),
    ("centerfocus.linsolve", None, "solve", "linsolve.solve"),
    ("centerfocus.center", None, "normalize_rotation",
     "center.normalize_rotation"),
    ("centerfocus.center", None, "lyapunov_quantities",
     "center.lyapunov_quantities"),
    ("centerfocus.center", None, "morse_check", "center.morse_check"),
    ("centerfocus.foliation", None, "blowup", "foliation.blowup"),
    ("centerfocus.foliation", None, "formal_first_integral_siegel",
     "foliation.siegel_first_integral"),
    ("centerfocus.foliation", None, "factor_fg", "foliation.factor_fg"),
    ("centerfocus.foliation", None, "real_slice", "foliation.real_slice"),
    ("centerfocus.germ", None, "compose", "germ.compose"),
    ("centerfocus.cli", None, "finite_order", "germ.finite_order"),
    ("centerfocus.cli", None, "pseudo_orbit", "germ.pseudo_orbit"),
    ("centerfocus.flow", None, "detect_periodic_sequence",
     "flow.detect_periodic_sequence"),
    ("centerfocus.flow", None, "return_map", "flow.return_map"),
    ("centerfocus.flow", None, "solve_ivp", "flow.solve_ivp"),
]

LAYERS = ("cli", "series", "linsolve", "center", "foliation", "germ", "flow")

# Spans timed per order N: the commands that call them, and N less the
# document's order (`slice` solves for the first integral three degrees
# past the order it reports).
_SWEPT_BY = {
    "center.lyapunov_quantities": (("lyapunov", "returnmap"), 0),
    "foliation.siegel_first_integral": (("slice",), 3),
    "foliation.factor_fg": (("slice",), 0),
    "germ.finite_order": (("germ",), 0),
}
SWEEPS = {f"{name}_s": tuple(sorted({n + shift for command in commands
                                     for n in gen.orders(command)}))
          for name, (commands, shift) in _SWEPT_BY.items()}


def _swept(name):
    return [f"{name}.N{n}" for n in SWEEPS[name]]


# Every per-layer metric a traced run prints, on every workload; a layer
# that a workload does not run reads 0.
PER_LAYER_METRICS = [
    "import.total_s", "import.scipy_s", "import.sympy_s", "import.numpy_s",
    "cli.parse_spec_s", "cli.render_report_s",
    "series.poly_mul_calls", "series.poly_mul_s",
    "series.lie_derivative_calls", "series.lie_derivative_s",
    "series.substitute_linear_s", "series.gr_ops", "series.coeff_bits_max",
    "linsolve.solve_calls", "linsolve.unknowns", "linsolve.solve_s",
    "center.normalize_rotation_s",
    *_swept("center.lyapunov_quantities_s"), "center.morse_check_s",
    "foliation.blowup_s", *_swept("foliation.siegel_first_integral_s"),
    *_swept("foliation.factor_fg_s"), "foliation.real_slice_s",
    "foliation.slice_seeds", "foliation.slice_samples",
    "foliation.slice_yield",
    "germ.compose_calls", "germ.compose_s", *_swept("germ.finite_order_s"),
    "germ.pseudo_orbit_s", "germ.pseudo_orbit_iterations",
    "flow.detect_periodic_sequence_s", "flow.return_map_calls",
    "flow.return_map_s", "flow.rhs_evals_per_return",
    "flow.steps_per_return",
    *[f"self.{layer}_s" for layer in LAYERS],
    "trace.docs_per_s",
]



def _tag(name, args):
    """The order N a swept call works at."""
    if name == "germ.finite_order":
        return args[0].truncation_degree
    return args[1]


def _skip(name, args):
    """Poly2 * scalar is a scaling, not a series product."""
    return name == "series.poly_mul" and \
        type(args[1]).__name__ != "Poly2"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = None
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.doc, tag])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_doc(self, doc_id: str) -> None:
        self.doc = doc_id
        self.open("cli.main")

    def end_doc(self) -> None:
        self.close(self.stack[-1])
        self.doc = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            if _skip(name, args):
                return orig(*args, **kwargs)
            tag = _tag(name, args) if name in _SWEPT_BY else None
            idx = tracer.open(name, tag)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "linsolve.solve":
            c["linsolve.unknowns"] += len(args[0][0]) if args[0] else 0
        elif name == "foliation.real_slice":
            ver = result[1]
            c["foliation.slice_samples"] += ver.n_samples
            c["foliation.slice_seeds"] += ver.n_samples + ver.n_failed_seeds
        elif name == "germ.pseudo_orbit":
            c["germ.pseudo_orbit_iterations"] += len(result.iterates) - 1
        elif name == "flow.solve_ivp":
            c["flow.nfev"] += int(result.nfev)
            c["flow.steps"] += len(result.t) - 1

    def install(self) -> None:
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def span_table(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "doc": s[4], "tag": s[5], "self": st}
                for s, st in zip(self.spans, selfs)]

    def summary(self, passes: int) -> dict:
        """Calls, inclusive and self seconds per span name, per pass."""
        selfs = self_times(self.spans)
        out: dict = {"passes": passes, "calls": defaultdict(int),
                     "total_s": defaultdict(float),
                     "self_s": defaultdict(float),
                     "swept": defaultdict(lambda: [0, 0.0])}
        for span, st in zip(self.spans, selfs):
            name, start, end, _, _, tag = span
            out["calls"][name] += 1
            out["total_s"][name] += end - start
            out["self_s"][name] += st
            if tag is not None:
                cell = out["swept"][f"{name}_s.N{tag}"]
                cell[0] += 1
                cell[1] += end - start
        out["counts"] = dict(self.counts)
        for key in ("calls", "total_s", "self_s", "swept"):
            out[key] = dict(out[key])
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


@contextlib.contextmanager
def count_gr_ops():
    """Count GaussianRational + - * / while the block runs.

    __rsub__ and __rtruediv__ are left alone: they delegate to __sub__ and
    __truediv__, which count the operation once.
    """
    from centerfocus.series import GaussianRational as G
    counter = [0]
    saved = []
    for attr in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__"):
        orig = G.__dict__[attr]

        def counted(a, b, _orig=orig):
            counter[0] += 1
            return _orig(a, b)

        saved.append((attr, orig))
        setattr(G, attr, counted)
    try:
        yield counter
    finally:
        for attr, orig in saved:
            setattr(G, attr, orig)


def layer_metrics(summary: dict, docs_per_pass: int) -> dict:
    """Per-layer metrics of one traced run, all per pass unless named so.

    Times are inclusive span seconds per pass; `self.<layer>_s` is the
    layer's self time per pass, and the self times of all layers add up
    to the time spent in main().
    """
    passes = summary["passes"]
    calls, total, selfs = summary["calls"], summary["total_s"], \
        summary["self_s"]
    counts = summary["counts"]

    def per_pass(value):
        return value / passes

    def count(name):
        # every pass runs the same documents, so this divides exactly
        return calls.get(name, 0) // passes

    m = {
        "cli.parse_spec_s": per_pass(total.get("cli.parse_spec", 0.0))
        / docs_per_pass,
        "cli.render_report_s": per_pass(total.get("cli.render_report", 0.0))
        / docs_per_pass,
        "series.poly_mul_calls": count("series.poly_mul"),
        "series.poly_mul_s": per_pass(total.get("series.poly_mul", 0.0)),
        "series.lie_derivative_calls": count("series.lie_derivative"),
        "series.lie_derivative_s": per_pass(
            total.get("series.lie_derivative", 0.0)),
        "series.substitute_linear_s": per_pass(
            total.get("series.substitute_linear", 0.0)),
        "linsolve.solve_calls": count("linsolve.solve"),
        "linsolve.unknowns": counts.get("linsolve.unknowns", 0) // passes,
        "linsolve.solve_s": per_pass(total.get("linsolve.solve", 0.0)),
        "center.normalize_rotation_s": per_pass(
            total.get("center.normalize_rotation", 0.0)),
        "center.morse_check_s": per_pass(total.get("center.morse_check", 0.0)),
        "foliation.blowup_s": per_pass(total.get("foliation.blowup", 0.0)),
        "foliation.real_slice_s": per_pass(
            total.get("foliation.real_slice", 0.0)),
        "foliation.slice_seeds": counts.get("foliation.slice_seeds", 0)
        // passes,
        "foliation.slice_samples": counts.get("foliation.slice_samples", 0)
        // passes,
        "germ.compose_calls": count("germ.compose"),
        "germ.compose_s": per_pass(total.get("germ.compose", 0.0)),
        "germ.pseudo_orbit_s": per_pass(total.get("germ.pseudo_orbit", 0.0)),
        "germ.pseudo_orbit_iterations":
            counts.get("germ.pseudo_orbit_iterations", 0) // passes,
        "flow.detect_periodic_sequence_s": per_pass(
            total.get("flow.detect_periodic_sequence", 0.0)),
        "flow.return_map_calls": count("flow.return_map"),
        "flow.return_map_s": per_pass(total.get("flow.return_map", 0.0)),
    }
    seeds = m["foliation.slice_seeds"]
    m["foliation.slice_yield"] = \
        m["foliation.slice_samples"] / seeds if seeds else 0.0
    returns = m["flow.return_map_calls"]
    m["flow.rhs_evals_per_return"] = \
        counts.get("flow.nfev", 0) / passes / returns if returns else 0.0
    m["flow.steps_per_return"] = \
        counts.get("flow.steps", 0) / passes / returns if returns else 0.0
    for key, (n_calls, seconds) in summary["swept"].items():
        m[key] = seconds / n_calls
    by_layer = defaultdict(float)
    for name, seconds in selfs.items():
        by_layer[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"self.{layer}_s"] = per_pass(by_layer.get(layer, 0.0))
    return m
