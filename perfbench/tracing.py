"""Spans and counters around mereokit's public functions, for the traced run.

The wrappers are installed from outside the library: each listed function
is replaced in its defining module and wherever another mereokit module
bound it by name (``search.coeff_tensor``, ``locality.decompose``,
``kinds.equivalent``, ``dynamics.equivalent``, ``cli.run_search``, ...),
and numpy's ``eigh``/``svd`` are replaced at the ``numpy.linalg``
attribute. ``uninstall`` puts every original back.

A span is (id, parent id, operation index, name, start, end). Spans stay in
memory until ``write_spans``. Self time is a span's duration minus the
durations of its direct child spans, which never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "hilbert": ("site_entropies", "expm_i", "haar_unitary"),
    "basis": ("decompose", "coeff_tensor", "matrix_from_coeffs", "weight_masses"),
    "models": ("random_klocal", "scrambled_klocal", "ising_chain"),
    "tps": ("equivalent", "is_product_operator"),
    "kinds": (
        "build_probe_set",
        "fingerprint",
        "cross_validate_tps",
        "pair_orbit_witness",
        "gram_orbit_witness",
    ),
    "dynamics": ("entropy_orbit", "default_time_grid"),
    "locality": ("locality_report", "is_k_local"),
    "search": ("search",),
    "cli": ("main",),
}
NUMPY_LINALG = ("eigh", "svd")
SPAN_NAMES = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs] + [
    f"numpy.linalg.{f}" for f in NUMPY_LINALG
]
# Functions whose ``.failed`` count is reported: rank rejections of probe
# sets, and CLI calls that returned a non-zero exit code or raised.
FAILABLE = ("kinds.build_probe_set", "cli.main")
# (ancestor, callee) pairs counted when the callee runs inside the ancestor.
NESTED = (
    ("search.search", "basis.coeff_tensor"),
    ("search.search", "basis.matrix_from_coeffs"),
    ("tps.equivalent", "tps.is_product_operator"),
)

# Per-layer metric name -> (unit, better); the order is the report order.
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    if _name in FAILABLE:
        PER_LAYER[f"{_name}.failed"] = ("count", "lower")
PER_LAYER.update(
    {
        "tps.perms_per_equivalent": ("ratio", "lower"),
        "search.iterations": ("count", "lower"),
        "search.line_search_evals": ("count", "lower"),
        "search.backtracks": ("count", "lower"),
        "search.accept_ratio": ("ratio", "higher"),
        "search.iters_per_s": ("1/s", "higher"),
        "cli.bytes_written": ("bytes", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    }
)


class Tracer:
    """Records spans and counts for the wrapped functions while installed."""

    def __init__(self):
        self.op = -1  # index of the operation in progress; spans of one op share it
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.search_iterations = 0
        self.search_restarts = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._active: Counter = Counter()
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self):
        import numpy

        modules = [m for k, m in sys.modules.items() if k.startswith("mereokit.")]
        for mod_name, funcs in LAYERS.items():
            module = importlib.import_module(f"mereokit.{mod_name}")
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._originals.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for func in NUMPY_LINALG:
            original = getattr(numpy.linalg, func)
            self._originals.append((numpy.linalg, func, original))
            setattr(numpy.linalg, func, self._wrap(f"numpy.linalg.{func}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = tracer._returned(name, args, kwargs, result)
                return result
            finally:
                tracer._exit(name, ok)

        return wrapper

    # -- span bookkeeping -----------------------------------------------

    def _enter(self, name: str):
        self.calls[name] += 1
        for ancestor, callee in NESTED:
            if callee == name and self._active[ancestor]:
                self.nested[(ancestor, callee)] += 1
        self._active[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, name: str, ok: bool):
        end = time.perf_counter()
        span_id, _, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self._active[name] -= 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if not ok:
            self.failed[name] += 1
        self.spans.append((span_id, parent, self.op, name, start, end))

    def _returned(self, name: str, args, kwargs, result) -> bool:
        if name == "search.search":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self.search_restarts += cfg.restarts
            self.search_iterations += result.iterations
        if name == "cli.main":
            return result == 0
        return True

    # -- results --------------------------------------------------------

    def metrics(self, bytes_written: int) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_ratio``, which needs an
        untraced pass to compare with."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in FAILABLE:
                out[f"{name}.failed"] = self.failed[name]
        equivalents = self.calls["tps.equivalent"]
        perms = self.nested[("tps.equivalent", "tps.is_product_operator")]
        out["tps.perms_per_equivalent"] = perms / equivalents if equivalents else 0.0
        # Each search makes one expansion per line-search trial, one expansion
        # and one reassembly per gradient (one per restart start plus one per
        # accepted step), and one final expansion for the residual.
        expansions = self.nested[("search.search", "basis.coeff_tensor")]
        reassemblies = self.nested[("search.search", "basis.matrix_from_coeffs")]
        line_search = expansions - reassemblies - self.calls["search.search"]
        accepted = reassemblies - self.search_restarts
        out["search.iterations"] = self.search_iterations
        out["search.line_search_evals"] = line_search
        out["search.backtracks"] = line_search - accepted
        out["search.accept_ratio"] = accepted / line_search if line_search else 0.0
        seconds = self.total_s["search.search"]
        out["search.iters_per_s"] = accepted / seconds if seconds else 0.0
        out["cli.bytes_written"] = bytes_written
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        """Write every span as CSV ``id,parent,op,name,start,end`` (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,op,name,start,end\n")
            for span in self.spans:
                f.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
