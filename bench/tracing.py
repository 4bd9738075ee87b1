"""Spans at the module boundaries of aggremin, recorded from outside the package.

``Tracer.install`` replaces each public name in ``TARGETS`` where the
calling module looks it up (``aggremin.potentials.hyp2f1`` is the
``hyp2f1`` that ``potentials`` calls) by a wrapper that records a span:
name, start, end and the span open when it was entered (its parent).
Spans are kept in flat arrays in memory and written out by ``save``.
A name that the package no longer has is listed in ``absent`` instead
of raising.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Span name "<layer>.<function>" (the layer is the module that defines the
# function) -> the modules whose lookup of the function is wrapped.
# TARGETS lists the same as (module, name, span name).
_CALLERS = {
    "special.hyp2f1": ("aggremin.potentials", "aggremin.verify"),
    "potentials.total_potential": ("aggremin.closed_form", "aggremin.verify"),
    "potentials.tilde_psi0": ("aggremin.potentials", "aggremin.verify"),
    "potentials.psi_gamma": ("aggremin.verify",),
    "potentials.psi_values_at_one": ("aggremin.verify",),
    "verify.verify_euler_lagrange": ("aggremin", "aggremin.cli"),
    "verify.convexity_report": ("aggremin", "aggremin.cli"),
    "closed_form.classify": ("aggremin", "aggremin.cli", "aggremin.verify"),
    "closed_form.radius": ("aggremin", "aggremin.cli", "aggremin.flow"),
    "closed_form.energy": ("aggremin", "aggremin.cli"),
    "closed_form.eta": ("aggremin", "aggremin.cli"),
    "closed_form.candidate_for": ("aggremin.verify",),
    "flow.run_to_convergence": ("aggremin", "aggremin.flow"),
    "flow.max_force": ("aggremin", "aggremin.flow"),
    "flow.discrete_energy": ("aggremin",),
    "flow.step": ("aggremin",),
    "cli.main": ("aggremin.cli",),
}
TARGETS = [
    (module, span.split(".", 1)[1], span)
    for span, modules in _CALLERS.items()
    for module in modules
]
# verify imports closed_form.eta under another name.
TARGETS.append(("aggremin.verify", "closed_form_eta", "closed_form.eta"))

# Branches of hyp2f1, by the rules of the special.py module docstring.
BRANCHES = ("direct", "connection", "fallback", "terminating")
_INT_TOL = 1e-12
_CONNECTION_CUTOFF = 1e-8
_DIRECT_MAX_Z = 0.75


def hyp2f1_branch(a: float, b: float, c: float, z: float) -> int:
    """Index into BRANCHES of the evaluation path that F(a, b; c; z) takes.

    Terminating series (a or b a non-positive integer within 1e-12) are
    polynomials whatever z; otherwise z <= 0.75 is summed directly, and
    above that the z -> 1 - z connection formula is used unless c - a - b
    is within 1e-8 of an integer, where plain summation is the fallback.
    z = 0 is counted as direct.
    """
    for p in (a, b):
        if abs(p - round(p)) <= _INT_TOL and round(p) <= 0:
            return 3
    if z <= _DIRECT_MAX_Z:
        return 0
    s = c - a - b
    return 2 if abs(s - round(s)) <= _CONNECTION_CUTOFF else 1


def _hyp2f1_tag(args, kwargs) -> int:
    inp = args[0] if args else kwargs["inp"]
    return hyp2f1_branch(inp.a, inp.b, inp.c, inp.z)


_TAGGERS = {"special.hyp2f1": _hyp2f1_tag}


class Tracer:
    """Records spans of wrapped package functions; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("b")
        self._stack = [-1]
        self._saved: list = []
        self.absent: list[str] = []

    def _wrap(self, fn, span: str):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        tagger = _TAGGERS.get(span)
        name_id, start, end, parent, tag, stack = (
            self.name_id, self.start, self.end, self.parent, self.tag, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            tag.append(tagger(args, kwargs) if tagger else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, to select the spans of one phase."""
        return len(self.start)

    def spans(self, begin: int = 0, stop: int | None = None) -> "Spans":
        stop = len(self.start) if stop is None else stop
        return Spans(
            self.names,
            np.frombuffer(self.name_id, dtype=np.uint16)[begin:stop].copy(),
            np.frombuffer(self.start, dtype=float)[begin:stop].copy(),
            np.frombuffer(self.end, dtype=float)[begin:stop].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[begin:stop] - begin,
            np.frombuffer(self.tag, dtype=np.int8)[begin:stop].copy(),
        )


class Spans:
    """A set of spans as arrays; parents index into the same set (-1 or
    negative: opened outside it)."""

    def __init__(self, names, name_id, start, end, parent, tag):
        self.names = list(names)
        self.name_id, self.start, self.end = name_id, start, end
        self.parent, self.tag = parent, tag

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as z:
            return cls([str(n) for n in z["names"]], z["name_id"], z["start"],
                       z["end"], z["parent"], z["tag"])

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            start=self.start, end=self.end, parent=self.parent, tag=self.tag)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @property
    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.duration
        covered = np.zeros_like(dur)
        inside = self.parent >= 0
        np.add.at(covered, self.parent[inside], dur[inside])
        return dur - covered

    def select(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        return self.name_id == self.names.index(span)

    @classmethod
    def concat(cls, parts: list) -> "Spans":
        """One set from several (e.g. one per child process), names merged."""
        names: list[str] = []
        fields = {k: [] for k in ("name_id", "start", "end", "parent", "tag")}
        offset = 0
        for part in parts:
            for n in part.names:
                if n not in names:
                    names.append(n)
            remap = np.array([names.index(n) for n in part.names] or [0], dtype=np.uint16)
            fields["name_id"].append(remap[part.name_id])
            fields["parent"].append(np.where(part.parent >= 0, part.parent + offset, -1))
            for k in ("start", "end", "tag"):
                fields[k].append(getattr(part, k))
            offset += len(part.start)
        empty = {"name_id": np.uint16, "parent": np.int32, "tag": np.int8}
        arrays = {k: np.concatenate(v) if v else np.zeros(0, dtype=empty.get(k, float))
                  for k, v in fields.items()}
        return cls(names, **arrays)
