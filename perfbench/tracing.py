"""Span tracer that wraps the library's public functions from outside.

Modules bind names with ``from .groebner import buchberger``, so wrapping a
function means replacing every binding of that function object in every
``fullness_lab`` module, not only the defining one.  Each call records one
span (name, start, end, parent span, request id); spans stay in memory and
are written out when the run ends.  Self time is span time minus the time
covered by child spans.
"""
from __future__ import annotations

import gc
import sys
import time

# (module, function) -> workloads expected to call it.  A traced run fails
# if an entry expected on its workload records no call, so a binding the
# wrapper missed shows up as an error, not as an idle layer.
ALL = ("corpus-cold", "dense-ideals", "qq-kernels")
ENTRY_POINTS = {
    ("groebner", "buchberger"): ALL,
    ("groebner", "s_polynomial"): ALL,
    ("groebner", "normal_form"): ALL,
    ("groebner", "eliminate"): ALL,
    ("idealcalc", "ideal_colon"): ALL,
    ("idealcalc", "ideal_intersection"): ALL,
    ("idealcalc", "ideal_product"): ALL,
    ("idealcalc", "ideal_contains_local"): ALL,
    ("fullness", "is_m_full"): ALL,
    ("fullness", "is_full"): ALL,
    ("fullness", "is_weakly_m_full"): ALL,
    ("fullness", "sample_linear_form"): ALL,
    ("invariants", "s_index"): ALL,
    ("invariants", "ratliff_rush_power"): ALL,
    ("invariants", "reduction_number"): ALL,
    ("invariants", "depth_witness"): ALL,
    ("invariants", "dao_numbers"): ALL,
    ("invariants", "verify_statements"): ("corpus-cold",),
    ("cli", "run"): ALL,
    ("cli", "build_ring"): ALL,
    ("cli", "_dispatch"): ALL,
}
# Wrapped in the benchmark client, which loads the corpus while generating
# inputs; the serving processes never call it.
CLIENT_ENTRY_POINTS = {("corpus", "load"): ALL}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request_id = None
        self._stack: list[list] = []  # [span index, child time]
        self._active: dict[str, int] = {}
        self.reset()

    def reset(self):
        """Forget aggregates (spans are kept); used after warm-up."""
        self.agg: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Wrap fn; observe(args, result, before) updates counters, where
        `before` is whatever observe(args, None, None) returned pre-call."""
        perf = time.perf_counter
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            before = observe(args, None, None) if observe else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            outermost = active.get(name, 0) == 0
            active[name] = active.get(name, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self.request_id)
                entry = self.agg.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                if outermost:
                    entry[1] += dur
                entry[2] += dur - frame[1]
            if observe:
                observe(args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, entry_points) -> None:
        """Replace every binding of each entry point in the package's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for modname, fname in entry_points:
            owner = sys.modules[f"{package}.{modname}"]
            orig = getattr(owner, fname)
            wrapped = self.wrap(f"{modname}.{fname}", orig, _OBSERVERS.get(fname, lambda t: None)(self))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def snapshot(self) -> dict:
        return {"agg": self.agg, "counters": self.counters}


# Observers: counters measured where the work happens.


def _observe_buchberger(tr):
    def observe(args, result, before):
        if result is not None:
            basis = result.basis
            tr.count("buchberger.basis_out", len(basis))
            if basis:
                deg = max(g.total_degree for g in basis)
                tr.counters["buchberger.max_degree"] = max(tr.counters.get("buchberger.max_degree", 0), deg)
    return observe


def _observe_normal_form(tr):
    def observe(args, result, before):
        if result is not None and result.is_zero():
            tr.count("normal_form.zero")
    return observe


def _observe_memo(tr):
    # A memoized call that leaves the ring's memo the same size was answered
    # from the memo (a miss always stores its own entry).
    def observe(args, result, before):
        cache = getattr(getattr(args[0], "ring", None), "_op_cache", None)
        if cache is None:
            return None
        if result is None:
            return len(cache)
        tr.count("memo.lookups")
        if len(cache) == before:
            tr.count("memo.hits")
    return observe


def _observe_predicate(tr):
    def observe(args, result, before):
        if result is not None:
            tr.count("predicate.results")
            tr.count("predicate.trials", result.trials_used)
            if not result.certified:
                tr.count("predicate.uncertified")
    return observe


def _observe_rr(tr):
    def observe(args, result, before):
        if result is not None:
            tr.count("rr_chain.terms", len(result.chain))
            # terms computed after the stable value first appeared
            tr.count("rr_chain.confirm", len(result.chain) - result.stabilized_at)
    return observe


_OBSERVERS = {
    "buchberger": _observe_buchberger,
    "normal_form": _observe_normal_form,
    "ideal_product": _observe_memo,
    "ideal_intersection": _observe_memo,
    "ideal_colon": _observe_memo,
    "is_m_full": _observe_predicate,
    "is_full": _observe_predicate,
    "ratliff_rush_power": _observe_rr,
}


def cache_state() -> dict:
    """Per-ring cache sizes read from outside the library at the end of a run."""
    from fullness_lab import idealcalc, invariants

    gc.collect()
    ring_cache = getattr(invariants, "_RING_CACHES", {})
    memo = sum(len(getattr(obj, "_op_cache", ()))
               for obj in gc.get_objects() if isinstance(obj, idealcalc.QuotientRing))
    return {"ring_cache_entries": len(ring_cache), "memo_entries": memo}


def merge(into: dict, snap: dict) -> dict:
    """Sum one tracer snapshot into an accumulated one (max for maxima)."""
    agg = into.setdefault("agg", {})
    for name, (calls, incl, self_s) in snap["agg"].items():
        cur = agg.setdefault(name, [0, 0.0, 0.0])
        cur[0] += calls
        cur[1] += incl
        cur[2] += self_s
    counters = into.setdefault("counters", {})
    for key, value in snap["counters"].items():
        if key.endswith("max_degree"):
            counters[key] = max(counters.get(key, 0), value)
        else:
            counters[key] = counters.get(key, 0) + value
    return into
