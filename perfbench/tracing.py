"""Spans and counts around calls into each rasched module.

A traced run wraps the package's public functions at the names their callers
look them up by, from this file, so nothing under `src/` changes. For example
`solve_assignment_lp` calls `solve_equality_feasibility` through the globals
of `rasched.seed`, so that is where it is wrapped. Every call becomes a span:
name, start, end, parent span and instance id, plus counts read from its
arguments and result. `Tracer.installed()` puts every original back on exit,
so code outside the traced region never runs patched.

A layer is a module: the first part of a span name. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("driver", "model", "seed", "simplex", "engine", "certificate", "oracle")


class Span:
    __slots__ = ("id", "name", "parent", "instance", "attrs", "start", "end", "error")

    def __init__(self, id, name, parent, instance, attrs):
        self.id, self.name, self.parent = id, name, parent
        self.instance, self.attrs = instance, attrs
        self.start = self.end = perf_counter()
        self.error = None

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "instance": self.instance, "start": self.start, "end": self.end,
                "error": self.error, **self.attrs}


class Stopwatch:
    """The clock of untraced runs: times a span without keeping it."""

    @contextmanager
    def span(self, name):
        sp = Span(None, name, None, None, {})
        try:
            yield sp
        finally:
            sp.end = perf_counter()


def _lp_rows(scaled, *args, **kwargs):
    """Rows of the seed LP: one per small or medium job, one per machine."""
    base = scaled.base
    return {"rows": sum(1 for j in base.jobs if not scaled.is_huge(j)) + base.num_machines}


def _engine_counts(result, engine, *args, **kwargs):
    return {"iterations": engine.iterations, "adds": engine.adds, "moves": engine.moves,
            "stuck": result is not engine.schedule,
            "blockers": len(engine.tree.blockers())}


def _cg_counts(result, *args, **kwargs):
    return {"rounds": result.rounds, "unresolved": result.status == "unresolved"}


#: (module, attribute at the caller's lookup name, span name, hook on the
#: arguments, hook on the result and arguments)
WRAP_POINTS = (
    ("rasched.driver", "scale_instance", "model.scale", None, None),
    ("rasched.driver", "seed_small_medium", "seed.seed", None, None),
    ("rasched.driver", "InsertionEngine.run", "engine.run", None, _engine_counts),
    ("rasched.driver", "build_dual_certificate", "certificate.build", None, None),
    ("rasched.driver", "verify_certificate", "certificate.verify", None, None),
    ("rasched.driver", "config_lp_lower_bound", "certificate.lp_bound", None, None),
    ("rasched.seed", "solve_assignment_lp", "seed.lp", _lp_rows, None),
    ("rasched.seed", "eliminate_support_cycles", "seed.cycles", None,
     lambda cancelled, *a, **k: {"cancelled": cancelled}),
    ("rasched.seed", "round_forest", "seed.round", None, None),
    ("rasched.seed", "solve_equality_feasibility", "simplex.feas", None, None),
    ("rasched.certificate", "simplex_min", "simplex.min", None, None),
    ("rasched.certificate", "knapsack_max_value", "oracle.knapsack",
     lambda query, *a, **k: {"items": len(query.items)}, None),
    ("rasched.certificate", "config_lp_feasible_cg", "certificate.cg", None, _cg_counts),
)


def resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *parts, attr = path.split(".")
    for part in parts:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Keeps spans in memory; `instance` tags the spans opened next."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None

    @contextmanager
    def span(self, name, attrs=None):
        """Record a span around the block; an exception's type goes in `error`."""
        sp = Span(len(self.spans), name, self.stack[-1] if self.stack else None,
                  self.instance, attrs or {})
        self.spans.append(sp)
        self.stack.append(sp.id)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, before(*args, **kwargs) if before else None) as sp:
                result = fn(*args, **kwargs)
            if after:
                sp.attrs.update(after(result, *args, **kwargs))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every point in WRAP_POINTS; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, before, after in WRAP_POINTS:
                owner, attr = resolve(module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """The per-layer metrics: counts and seconds summed over all spans."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    names = {sp.id: sp.name for sp in spans}
    for sp in spans:
        by_name[sp.name].append(sp)
        if sp.parent is not None:
            child_s[sp.parent] += sp.elapsed

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(sp.elapsed for sp in by_name[name])

    def total(name, attr):
        return sum(sp.attrs.get(attr, 0) for sp in by_name[name])

    def failed(name, error):
        return sum(1 for sp in by_name[name] if sp.error == error)

    def knapsack_s(*parents):
        return sum(sp.elapsed for sp in by_name["oracle.knapsack"]
                   if names.get(sp.parent) in parents)

    runs = [sp for sp in by_name["engine.run"] if sp.error is None]
    m = {
        "driver.solves": calls("driver.solve"),
        "driver.solve_s": secs("driver.solve"),
        "driver.probes": calls("model.scale"),
        "driver.probes_seed_infeasible": failed("seed.seed", "SeedInfeasible"),
        "driver.probes_stuck": sum(1 for sp in runs if sp.attrs["stuck"]),
        "model.scale_s": secs("model.scale"),
        "model.parse_s": secs("model.parse"),
        "seed.calls": calls("seed.seed"),
        "seed.s": secs("seed.seed"),
        "seed.lp_s": secs("seed.lp"),
        "seed.cycles_s": secs("seed.cycles"),
        "seed.cycles_cancelled": total("seed.cycles", "cancelled"),
        "seed.round_s": secs("seed.round"),
        "seed.infeasible": failed("seed.lp", "SeedInfeasible"),
        "seed.lp_rows_mean": _mean(sp.attrs["rows"] for sp in by_name["seed.lp"]),
        "simplex.feas_calls": calls("simplex.feas"),
        "simplex.feas_s": secs("simplex.feas"),
        "simplex.min_calls": calls("simplex.min"),
        "simplex.min_s": secs("simplex.min"),
        "engine.runs": calls("engine.run"),
        "engine.run_s": secs("engine.run"),
        "engine.iterations": total("engine.run", "iterations"),
        "engine.adds": total("engine.run", "adds"),
        "engine.moves": total("engine.run", "moves"),
        "engine.stuck": sum(1 for sp in runs if sp.attrs["stuck"]),
        "engine.assigned_share": _mean(not sp.attrs["stuck"] for sp in runs),
        "engine.tree_blockers": total("engine.run", "blockers"),
        "certificate.build_calls": calls("certificate.build"),
        "certificate.build_s": secs("certificate.build"),
        "certificate.verify_s": secs("certificate.verify"),
        "certificate.recheck_s": secs("certificate.recheck"),
        "certificate.text_s": secs("certificate.to_text") + secs("certificate.from_text"),
        "certificate.lp_bound_s": secs("certificate.lp_bound"),
        "certificate.cg_calls": calls("certificate.cg"),
        "certificate.cg_rounds": total("certificate.cg", "rounds"),
        "certificate.cg_unresolved": total("certificate.cg", "unresolved"),
        "oracle.knapsack_calls": calls("oracle.knapsack"),
        "oracle.knapsack_s": secs("oracle.knapsack"),
        "oracle.knapsack_price_s": knapsack_s("certificate.cg"),
        "oracle.knapsack_check_s": knapsack_s("certificate.verify", "certificate.recheck"),
        "oracle.knapsack_items_mean": _mean(sp.attrs["items"] for sp in by_name["oracle.knapsack"]),
        "oracle.cap_exceeded": failed("oracle.knapsack", "CapExceededError"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(sp.elapsed - child_s[sp.id] for sp in spans
                                   if sp.name.split(".", 1)[0] == layer)
    return m
