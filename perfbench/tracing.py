"""Per-layer spans recorded from outside the program.

``install`` replaces each target function of ``skewvn`` by a timing
wrapper in every ``skewvn`` module that holds it, so calls made through
``from .x import f`` names are caught where the callers look them up.
Nothing under ``src/`` changes.  Spans nest: a function's self time is its
duration minus the time of the wrapped calls made inside it.
"""

import functools
import importlib
import sys
import time

# layer (module of src/skewvn) -> public functions timed in that layer
TARGETS = {
    "cmatio": ("format_cmat", "parse_cmat"),
    "wvn": ("wvn_decompose", "rank_projection_step", "spectral_resolution"),
    "schatten": ("schatten_norm", "numerical_rank", "singular_values"),
    "canonical": ("youla_decompose", "polar_factorize", "antilinear_block_skew_diagonalize"),
    "matcore": ("singular_spectrum", "orthonormal_columns", "psd_sqrt"),
    "antilinear": ("make_anticonjugation", "modulus"),
    "generate": ("gen",),
}

COUNTERS = (
    "wvn.outer_steps",
    "wvn.rank_step_attempts",
    "wvn.cells_max",
    "wvn.spectral_resolution.bytes",
    "cmatio.bytes_written",
    "cmatio.bytes_read",
)


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Span stack plus per-function totals, kept in memory for one process."""

    def __init__(self):
        self.stack = []
        self.spans = {name: {"calls": 0, "self_s": 0.0, "fail": 0} for name in span_names()}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def snapshot(self):
        return {"spans": self.spans, "counters": self.counters}

    def _parent(self):
        return self.stack[-2][0] if len(self.stack) > 1 else None

    def _count(self, name, args, kwargs, result):
        c = self.counters
        if name == "wvn.rank_projection_step":
            cells = args[3] if len(args) > 3 else kwargs.get("n", 0)
            c["wvn.cells_max"] = max(c["wvn.cells_max"], int(cells))
            if self._parent() == "wvn.wvn_decompose":
                c["wvn.rank_step_attempts"] += 1
        elif name == "wvn.spectral_resolution":
            if self._parent() == "wvn.wvn_decompose":
                c["wvn.outer_steps"] += 1
            projections = getattr(result, "projections", ())
            c["wvn.spectral_resolution.bytes"] += sum(int(p.nbytes) for p in projections)
        elif name == "cmatio.format_cmat":
            c["cmatio.bytes_written"] += len(result)
        elif name == "cmatio.parse_cmat":
            text = args[0] if args else kwargs.get("text", "")
            c["cmatio.bytes_read"] += len(text)

    def wrap(self, name, fn):
        spans = self.spans[name]
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                self._count(name, args, kwargs, result)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                spans["calls"] += 1
                spans["self_s"] += elapsed - frame[1]
                if not ok:
                    spans["fail"] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced


def install(tracer):
    """Wrap every target in every loaded skewvn module."""
    importlib.import_module("skewvn")
    for layer in TARGETS:
        importlib.import_module(f"skewvn.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "skewvn" or n.startswith("skewvn.")]
    for layer, fns in TARGETS.items():
        home = sys.modules[f"skewvn.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def merge(snapshots):
    """Sum span totals and counters over processes (cells_max takes the max)."""
    spans = {name: {"calls": 0, "self_s": 0.0, "fail": 0} for name in span_names()}
    counters = dict.fromkeys(COUNTERS, 0)
    for snap in snapshots:
        for name, s in snap["spans"].items():
            for key in ("calls", "self_s", "fail"):
                spans[name][key] += s[key]
        for key, value in snap["counters"].items():
            if key == "wvn.cells_max":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    return {"spans": spans, "counters": counters}
