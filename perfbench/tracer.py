"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records one span per call: function id, start, end, parent span and op
id.  A function imported by name (``from .combinatorics import binom``)
is replaced in every ``skewtorus`` module namespace that bound it, and a
method in every class attribute that holds it (``Angle.__mul__`` is
``Angle.__rmul__``).  ``uninstall`` puts every original object back and
fails loudly if any attribute does not end up as the original.

Spans live in flat arrays until the run ends; self time is a span's
duration minus the durations of its direct children (calls nest, so
children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array

from skewtorus import circle, cli, combinatorics, config, dynamics, ellis, endo, factor_lab, weyl

# (metric name, owner, attribute); owner is a module or a class
TRACED = (
    ("combinatorics.binom", combinatorics, "binom"),
    ("circle.Angle.new", circle.Angle, "__init__"),
    ("circle.Angle.__add__", circle.Angle, "__add__"),
    ("circle.Angle.__rmul__", circle.Angle, "__rmul__"),
    ("circle.Angle.parse", circle.Angle, "parse"),
    ("circle.parse_point", circle, "parse_point"),
    ("circle.Angle.__str__", circle.Angle, "__str__"),
    ("circle.angle_to_unit", circle, "angle_to_unit"),
    ("endo.TruncEndo.__call__", endo.TruncEndo, "__call__"),
    ("endo.TruncEndo.compose", endo.TruncEndo, "compose"),
    ("endo.TruncEndo.__mul__", endo.TruncEndo, "__mul__"),
    ("endo.TruncEndo.validate", endo.TruncEndo, "validate"),
    ("endo.decompose", endo, "decompose"),
    ("ellis.HmElement.__mul__", ellis.HmElement, "__mul__"),
    ("ellis.HmElement.inverse", ellis.HmElement, "inverse"),
    ("ellis.HmElement.act", ellis.HmElement, "act"),
    ("ellis.HmElement.validate", ellis.HmElement, "validate"),
    ("ellis.HmElement.from_dict", ellis.HmElement, "from_dict"),
    ("ellis.HmElement.to_dict", ellis.HmElement, "to_dict"),
    ("ellis.commutator", ellis, "commutator"),
    ("ellis.ast_mul", ellis, "ast_mul"),
    ("dynamics.PolyAngle.evaluate", dynamics.PolyAngle, "evaluate"),
    ("dynamics.PolyAngle.shift", dynamics.PolyAngle, "shift"),
    ("dynamics.orbit_polynomial", dynamics, "orbit_polynomial"),
    ("dynamics.ambient_iterate", dynamics, "ambient_iterate"),
    ("dynamics.q_eval", dynamics, "q_eval"),
    ("weyl.weyl_average", weyl, "weyl_average"),
    ("weyl.equidistribution_target", weyl, "equidistribution_target"),
    ("weyl.minimal_period", weyl, "minimal_period"),
    ("factor_lab.coset_equal", factor_lab, "coset_equal"),
    ("factor_lab.g1_member", factor_lab, "g1_member"),
    ("factor_lab.g_member", factor_lab, "g_member"),
    ("factor_lab.kernel_member", factor_lab, "kernel_member"),
    ("factor_lab.nonseparation_witness", factor_lab, "nonseparation_witness"),
    ("cli.main", cli, "main"),
    ("config.load_config", config, "load_config"),
)
NAMES = tuple(name for name, _, _ in TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}


def _program_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "skewtorus" or n.startswith("skewtorus.")]


class Tracer:
    def __init__(self) -> None:
        self.fid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = 0
        self.samples = 0  # Weyl samples requested through weyl_average
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, func):
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(func, "__qualname__", wrapper.__name__)
        return wrapper

    def _count_samples(self, func):
        """weyl_average(poly, N, shift, basis) with N added to ``samples``."""

        def counting(*args, **kwargs):
            self.samples += args[1] if len(args) > 1 else kwargs["N"]
            return func(*args, **kwargs)

        return counting

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for name, owner, attr in TRACED:
            original = owner.__dict__[attr]
            fid = _ID[name]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(fid, original.__func__))
            elif name == "weyl.weyl_average":
                replacement = self._wrap(fid, self._count_samples(original))
            else:
                replacement = self._wrap(fid, original)
            holders = modules if isinstance(owner, type(sys)) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, replacement)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        leftover = [
            f"{getattr(h, '__name__', h)}.{k}"
            for h, k, original in self._patched
            if vars(h)[k] is not original
        ]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ results

    def spans(self) -> int:
        return len(self.fid)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self seconds and inclusive seconds."""
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in NAMES}
        for i in range(n):
            row = out[NAMES[self.fid[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["total_s"] += dur
        return out

    def child_calls(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly from a span of ``parent``."""
        pid, cid = _ID[parent], _ID[child]
        fid, par = self.fid, self.parent
        return sum(1 for i in range(len(fid)) if fid[i] == cid and par[i] >= 0 and fid[par[i]] == pid)

