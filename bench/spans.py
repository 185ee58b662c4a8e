"""Spans recorded from outside the package, and their self times.

``Tracer.install`` wraps every public function of the traced atkinpoly
modules and rebinds the wrapper under every name in every atkinpoly
namespace that bound the original, so calls made inside the package
become child spans too.  Operators of RatPoly, FpPoly and Fraction are
not wrapped: their call counts would swamp the timing, and their cost
shows as self time of the calling function.

A span is ``[name, start, end, parent, op, failed]``: ``parent`` is the
index of the enclosing span or None, ``op`` the operation it ran for.
Spans stay in memory and are summarized when the round ends.
"""

from __future__ import annotations

import functools
import sys
import types
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("exact", "ratpoly", "fp", "atkin", "assoc_jacobi", "hypergeom", "genfun", "weight", "supersingular", "cli")

# the functions that get their own per-function metrics
FUNCTIONS = (
    "atkin.atkin", "atkin.atkin_normalized", "atkin.kz_explicit", "atkin.atkin_normalized_value_seq",
    "ratpoly.affine_substitute", "ratpoly.reduce_mod_p", "ratpoly.poly_eval",
    "exact.gen_binom", "exact.pochhammer",
    "assoc_jacobi.assoc_V", "assoc_jacobi.wimp_V_explicit", "assoc_jacobi.ourrep_explicit",
    "hypergeom.pfq", "hypergeom.pfq_terminating", "hypergeom.f21_real", "hypergeom.f21_near_one",
    "hypergeom.u_and_y_seq",
    "weight.weight_w", "weight.quad_integrate", "weight.gram",
    "supersingular.ss_poly", "supersingular.atkin_mod_p",
    "cli.main",
)

BENCH = "bench"  # layer of the benchmark's own spans


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _enter(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            self._exit(rec)

    def wrap(self, name: str, fn):
        # written out instead of `with self.span(name)`: a generator-based
        # context manager would add its cost to every one of ~10^5 calls
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                self._exit(rec)

        return traced

    def install(self, package: str = "atkinpoly"):
        """Wrap the public functions of every layer module of ``package``."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package, layer)]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap("%s.%s" % (layer, attr), fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval before the union is
    taken, so time a child spends outside its parent is never subtracted.
    """
    children = [[] for _ in spans]
    for rec in spans:
        if rec[3] is not None:
            children[rec[3]].append(rec)
    out = []
    for rec, kids in zip(spans, children):
        start, end = rec[1], rec[2]
        clipped = [(max(k[1], start), min(k[2], end)) for k in kids]
        out.append(end - start - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def summarize(spans) -> dict:
    """Per-function and per-layer calls, self seconds and failed calls.

    Also returns ``root_s``, the summed duration of the root spans; the
    self times of all spans add up to it when every child lies inside its
    parent and siblings do not overlap.
    """
    funcs = {}
    for rec, self_s in zip(spans, self_times(spans)):
        stat = funcs.setdefault(rec[0], [0, 0.0, 0])
        stat[0] += 1
        stat[1] += self_s
        stat[2] += rec[5]
    layers = {}
    for name, (calls, self_s, failed) in funcs.items():
        stat = layers.setdefault(name.split(".")[0], [0, 0.0, 0])
        stat[0] += calls
        stat[1] += self_s
        stat[2] += failed
    root_s = sum(rec[2] - rec[1] for rec in spans if rec[3] is None)
    return {"functions": funcs, "layers": layers, "root_s": root_s}
