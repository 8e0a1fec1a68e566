"""Spans around qperiods' public functions, installed from outside the package.

`Tracer.install` replaces each target function by a wrapper wherever the
package binds it: the defining module, every module that imported it with
`from .x import y`, and the class dict for methods (including aliases such
as `__rmul__ = __mul__`).  `uninstall` puts the originals back.  Spans stay
in memory as [name, start, end, parent, task, child_time] and are written
once, as JSON lines, by `write_spans`.

A target that no longer exists in the package is skipped, so its metrics
are absent from the output rather than reported as 0.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path); the prefix names the layer.
TARGETS = (
    ("localfield.quadratic_defect", "qperiods.localfield", "quadratic_defect"),
    ("localfield.hilbert_symbol", "qperiods.localfield", "hilbert_symbol"),
    ("localfield.unit_class_reps", "qperiods.localfield", "unit_class_reps"),
    ("localfield.count_square_roots", "qperiods.localfield", "count_square_roots"),
    ("qform.is_anisotropic", "qperiods.qform", "is_anisotropic"),
    ("qform.anisotropic_representative", "qperiods.qform",
     "anisotropic_representative"),
    ("qform.invariants", "qperiods.qform", "invariants"),
    ("kernels.solution_count", "qperiods.kernels", "solution_count"),
    ("kernels.primitive_zero_exists", "qperiods.kernels", "primitive_zero_exists"),
    ("kernels.naive_count", "qperiods.kernels", "naive_count"),
    ("counting.count_level_histogram", "qperiods.counting",
     "count_level_histogram"),
    ("counting.x_series", "qperiods.counting", "x_series"),
    ("counting.conic_measure", "qperiods.counting", "conic_measure"),
    ("ratfunc.ratio_if_proportional", "qperiods.ratfunc", "ratio_if_proportional"),
    ("ratfunc.Poly.mul", "qperiods.ratfunc", "Poly.__mul__"),
    ("closedforms.closed_profile", "qperiods.closedforms", "closed_profile"),
    ("closedforms.case_for_form", "qperiods.closedforms", "case_for_form"),
    ("periods.verify_table_row", "qperiods.periods", "verify_table_row"),
    ("periods.evaluate_period", "qperiods.periods", "evaluate_period"),
    ("cli.main", "qperiods.cli", "main"),
)

# per-field caches whose hit ratio is measured: misses are the growth of the
# cache over the outermost calls, hits are the other calls
CACHES = {
    "localfield.quadratic_defect": ("localfield.defect_cache", "_defect_cache"),
    "localfield.hilbert_symbol": ("localfield.symbol_cache", "_symbol_cache"),
}

# integer statistics the hooks accumulate, by target
STAT_KEYS = {
    "kernels.solution_count": ("buckets",),
    "counting.x_series": ("levels_returned",),
    "periods.evaluate_period": ("denominator_bits", "primes"),
}

# (metric, unit, better) for every metric the traced run reports
EXTRA_METRICS = (
    ("localfield.scan_elements", "count", "lower"),
    ("localfield.defect_cache.hit_ratio", "ratio", "higher"),
    ("localfield.symbol_cache.hit_ratio", "ratio", "higher"),
    ("kernels.solution_count.buckets", "count", "lower"),
    ("counting.x_series.levels_counted", "count", "lower"),
    ("counting.x_series.levels_returned", "count", "higher"),
    ("periods.evaluate_period.denominator_bits", "bits", "lower"),
    ("periods.evaluate_period.primes", "count", "lower"),
    ("periods.evaluate_period.certified_digits", "digits", "higher"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), trace overhead last."""
    out = []
    for name, _, _ in TARGETS:
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out.extend(EXTRA_METRICS)
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def _prime_count(n: int) -> int:
    if n < 2:
        return 0
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return sum(flags)


def _log10_abs(x) -> float:
    return math.log10(abs(x.numerator)) - math.log10(x.denominator)


def _resolve(module, path):
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.stats = defaultdict(float)
        self.present = []
        self._patches = []
        self._depth = defaultdict(int)
        self._period_digits = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target that exists; the qperiods modules must be loaded."""
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "qperiods" or n.startswith("qperiods."))]
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            if owner is None:
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            homes = [owner] if isinstance(owner, type) else pkg_modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._patches.append((home, key, original))
                        setattr(home, key, wrapper)
            self.present.append(name)
        owner, attr = _resolve("qperiods.localfield", "ResidueRing.elements")
        if owner is not None:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._count_elements(original))
            self.present.append("localfield.scan_elements")

    def uninstall(self):
        for home, key, original in reversed(self._patches):
            setattr(home, key, original)
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _count_elements(self, original):
        stats = self.stats

        def elements(ring):
            for x in original(ring):
                stats["localfield.scan_elements"] += 1
                yield x
        return elements

    def _wrap(self, name, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        before, after = self._hooks(name, fn)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.task, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            pre = before(args, kwargs) if before else None
            result = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
                if after:
                    after(args, kwargs, result, pre)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, name, fn):
        stats = self.stats
        if name in CACHES:
            metric, attr = CACHES[name]
            depth = self._depth

            def before(args, kwargs):
                depth[name] += 1
                if depth[name] == 1:
                    return len(getattr(args[0], attr))
                return None

            def after(args, kwargs, result, pre):
                depth[name] -= 1
                if pre is not None:
                    stats[metric + ".misses"] += len(getattr(args[0], attr)) - pre
            return before, after
        if name == "kernels.solution_count":
            sig = inspect.signature(fn)

            def after(args, kwargs, result, pre):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                convolutions = max(len(a["coeff_list"]) + a["planes"] - 1, 0)
                stats[name + ".buckets"] += a["ring"].size * convolutions
            return None, after
        if name == "counting.x_series":
            def after(args, kwargs, result, pre):
                if result is not None:
                    stats[name + ".levels_returned"] += len(result)
            return None, after
        if name == "periods.evaluate_period":
            sig = inspect.signature(fn)
            digits = self._period_digits

            def after(args, kwargs, result, pre):
                if result is None:
                    return
                p_max = sig.bind(*args, **kwargs).arguments["p_max"]
                stats[name + ".primes"] += _prime_count(p_max)
                bits = result.value.denominator.bit_length()
                key = name + ".denominator_bits"
                stats[key] = max(stats[key], bits)
                if result.tail_bound and result.value:
                    digits.append(_log10_abs(result.value)
                                  - _log10_abs(result.tail_bound))
            return None, after
        return None, None

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics for the functions present: calls and self time
        per target plus the derived counts and ratios."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        levels_counted = 0
        for name, start, end, parent, _task, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
            if (name == "counting.count_level_histogram" and parent >= 0
                    and self.spans[parent][0] == "counting.x_series"):
                levels_counted += 1
        out = {}
        for name in self.present:
            if name == "localfield.scan_elements":
                out[name] = int(self.stats[name])
                continue
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            if name in CACHES:
                metric = CACHES[name][0]
                misses = self.stats[metric + ".misses"]
                n = calls[name]
                out[metric + ".hit_ratio"] = (n - misses) / n if n else 0.0
            for key in STAT_KEYS.get(name, ()):
                out[name + "." + key] = int(self.stats[name + "." + key])
            if name == "counting.x_series":
                out[name + ".levels_counted"] = levels_counted
            if name == "periods.evaluate_period":
                out[name + ".certified_digits"] = (
                    min(self._period_digits) if self._period_digits else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task, _child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
