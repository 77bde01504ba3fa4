"""Spans around the public functions of each equidim layer, from outside.

``Tracer.install`` replaces every traced function at every name a
caller can look it up by: the defining module, each ``equidim`` module
that imported it by name, and the package namespace.  Methods are
replaced on their class.  ``Tracer.restore`` puts the originals back
and raises if any name still holds a wrapper.

A span is ``(name id, start, end, parent index, system id)``.  Spans
stay in memory, one list per pass; self time is a span's duration minus
the durations of its direct children.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import equidim  # noqa: F401  (loads every equidim module the tracer patches)

# (module, attribute path) of every traced callable, grouped by layer.
TRACED = {
    "decomp": [("decomp", "equidim"), ("decomp", "GCache.candidates")],
    "cells": [("cells", "make_witness")] + [
        ("cells", f"AffineCell.{m}")
        for m in ("basis", "is_proper", "rad_member", "subtract",
                  "intersect_proper", "intersect_components", "dim_degree")
    ],
    "groebner": [("groebner", f) for f in
                 ("buchberger", "extend_basis", "saturate", "radical_member", "normal_form")],
    "zerodim": [("zerodim", f) for f in
                ("saturation", "extended", "properness", "radical_membership",
                 "low_degree_colon", "quotient")] + [("zerodim", "QuotientStructure.__init__")],
    "fastred": [("fastred", f"ArrayReducers.{m}") for m in ("reduce", "insert")]
    + [("fastred", f"Packer.{m}") for m in ("poly_in", "stream_in", "poly_out")],
    "systems": [("systems", f) for f in ("gen_ps", "gen_sos", "parse_system")],
}

_MARK = "_perfbench_wrapped"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


def _equidim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "equidim" or name.startswith("equidim."))]


class Tracer:
    """Installs wrappers, records spans and counters per pass."""

    def __init__(self):
        self.names: list[str] = []
        self.passes: list[list[tuple]] = []
        self.counters: list[Counter] = []
        self.system_id = -1
        self._spans: list = []
        self._count: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- passes -------------------------------------------------------------

    def start_pass(self) -> None:
        self._spans = []
        self._count = Counter()
        self.passes.append(self._spans)
        self.counters.append(self._count)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer._spans
            if before is not None:
                before(tracer._count, args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, stack[-1], tracer.system_id)
            if after is not None:
                after(tracer._count, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every traced callable at every name it is reachable by."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _equidim_modules()
        for targets in TRACED.values():
            for module, path in targets:
                name = span_name(module, path)
                owner = sys.modules[f"equidim.{module}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                hooks = _HOOKS.get(name, (None, None))
                wrapper = self._wrap(name, original, *hooks)
                if cls_path:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back; raise if any wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        leftovers = []
        for mod in _equidim_modules():
            for key, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    leftovers.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("equidim"):
                    leftovers += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                                  if getattr(v, _MARK, False)]
        if leftovers:
            raise RuntimeError(f"wrappers left after restore: {', '.join(leftovers)}")

    # -- reduction ----------------------------------------------------------

    def pass_profile(self, index: int) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, total seconds) per span name for one pass."""
        spans = self.passes[index]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            total_s[name] += t1 - t0
        return calls, self_s, total_s

    def dump(self, fh) -> None:
        """Write every span as one JSON array per line, grouped by pass."""
        json.dump({"names": self.names}, fh)
        fh.write("\n")
        for k, spans in enumerate(self.passes):
            for nid, t0, t1, parent, sid in spans:
                fh.write(f"[{k},{nid},{t0:.9f},{t1:.9f},{parent},{sid}]\n")


# Counters recorded at the same boundaries as the spans, so that ratios
# are measured where the work happens.  ``before`` sees the arguments,
# ``after`` the arguments and the result.

def _basis_before(count, args):
    # the witness backend memoizes the ideal basis on the cell
    if args[0]._basis is None:
        count["cells.AffineCell.basis.computed"] += 1


def _buchberger_after(count, args, result):
    count["groebner.buchberger.unit"] += result.is_unit
    count["groebner.buchberger.out_gens"] += len(result.gens)


def _colon_after(count, args, result):
    count["zerodim.low_degree_colon.hits"] += bool(result)


def _quotient_built(count, args, result):
    count["zerodim.quotient.dim_max"] = max(count["zerodim.quotient.dim_max"], args[0].D)


_HOOKS = {
    "cells.AffineCell.basis": (_basis_before, None),
    "groebner.buchberger": (None, _buchberger_after),
    "zerodim.low_degree_colon": (None, _colon_after),
    "zerodim.QuotientStructure.__init__": (None, _quotient_built),
}
