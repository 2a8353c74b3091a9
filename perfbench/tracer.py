"""In-memory span tracing of torsionlab layers, installed from outside.

The library has no spans of its own, so the benchmark wraps the functions
that make up each layer at every place they are bound: the defining module,
every ``from .x import f`` site in other torsionlab modules, the package
namespace, and class attributes for methods.  ``numpy.linalg.eigh`` is
wrapped too, but only calls made from ``torsionlab.torsion_engine`` become
spans.

A span is ``[name, start, end, parent index, op id]``.  Self time is the
span's duration minus the time its direct children cover (spans nest, since
everything runs on one thread).  Nothing is recorded while ``active`` is
false, so oracle checks and input preparation stay out of the trace.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path) of every wrapped function.
LAYERS = [
    ("linalg_exact.matmul", "linalg_exact", "matmul"),
    ("linalg_exact.inverse", "linalg_exact", "inverse"),
    ("linalg_exact.det_prime_psd", "linalg_exact", "det_prime_psd"),
    ("linalg_exact.smith_normal_form", "linalg_exact", "smith_normal_form"),
    ("linalg_exact.vol_float", "linalg_exact", "vol_float"),
    ("linalg_exact.product_is_zero", "linalg_exact", "product_is_zero"),
    ("flat_bundle.transport", "flat_bundle", "transport"),
    ("flat_bundle.check_flatness", "flat_bundle", "check_flatness"),
    ("torsion_engine.assemble", "torsion_engine", "assemble"),
    ("torsion_engine.t_comb_squared_exact", "torsion_engine", "t_comb_squared_exact"),
    ("torsion_engine.laplacians", "torsion_engine", "laplacians"),
    ("torsion_engine.harmonic_data", "torsion_engine", "harmonic_data"),
    ("torsion_engine.ft_torsion_of_tcc", "torsion_engine", "ft_torsion_of_tcc"),
    ("complex_core.require_valid", "complex_core", "ComplexDescription.require_valid"),
    ("complex_core.integral_homology", "complex_core", "ComplexDescription.integral_homology"),
    ("complex_core.h1_lattice", "complex_core", "ComplexDescription.h1_lattice"),
    ("euler_struct.validate_spray", "euler_struct", "validate_spray"),
    ("euler_struct.act", "euler_struct", "act"),
    ("barycentric.barycentric_subdivide", "barycentric", "barycentric_subdivide"),
    ("barycentric.transport_reference", "barycentric", "SubdivisionMap.transport_reference"),
    ("analytic_model.zeta_det_laplacian", "analytic_model", "zeta_det_laplacian"),
    ("analytic_model.analytic_torsion_circle", "analytic_model", "analytic_torsion_circle"),
    ("corpus.random_flat_bundle", "corpus", "random_flat_bundle"),
]
EIGH_LAYER = "torsion_engine.eigh"
EIGH_CALLER = "torsionlab.torsion_engine"


def _max_entry_bits(tcc):
    """Largest numerator or denominator bit length in the exact boundaries."""
    best = 0
    for m in (tcc.boundaries_exact or {}).values():
        for row in m:
            for x in row:
                if x:
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _after_assemble(tracer, args, kwargs, tcc):
    bits = _max_entry_bits(tcc)
    tracer.counters["linalg_exact.max_entry_bits"] = max(
        tracer.counters["linalg_exact.max_entry_bits"], bits
    )


def _after_ft(tracer, args, kwargs, result):
    tcc = args[0] if args else kwargs["tcc"]
    tracer.counters["ft_degrees"] += tcc.top_dim + 1


HOOKS = {
    "torsion_engine.assemble": _after_assemble,
    "torsion_engine.ft_torsion_of_tcc": _after_ft,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, args, kwargs, hook=None):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if hook is not None:
            hook(self, args, kwargs, out)
        return out

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, args, kwargs, hook)

        return traced

    def wrap_eigh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.active and sys._getframe(1).f_globals.get("__name__") == EIGH_CALLER:
                return tracer.span(EIGH_LAYER, fn, args, kwargs)
            return fn(*args, **kwargs)

        return traced

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer at every binding site; undone by ``uninstall``."""
        import numpy as np

        import torsionlab  # noqa: F401  (loads every module before the scan)

        mods = [m for n, m in sys.modules.items() if n == "torsionlab" or n.startswith("torsionlab.")]
        for name, modname, attr in LAYERS:
            owner = sys.modules[f"torsionlab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._replace(mod, key, wrapped)
        self._replace(np.linalg, "eigh", self.wrap_eigh(np.linalg.eigh))

    def _replace(self, obj, key, new):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self):
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)


def self_times(spans, op_scales=None):
    """(calls, self seconds) per span name.

    With ``op_scales``, each span's self time is multiplied by the
    calibration factor of the op it belongs to.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    own = defaultdict(float)
    for i, (name, start, end, _, op) in enumerate(spans):
        k = op_scales[op] if op_scales is not None and op is not None else 1.0
        calls[name] += 1
        own[name] += ((end - start) - child[i]) * k
    return calls, own
