"""Span tracer that wraps halfline's public functions where the library looks them up.

A function imported by name (`from .fem import inertia_below`) is bound
in several module namespaces; `installed()` swaps every such binding for
one wrapper and puts the originals back on exit, so untraced code runs
the library untouched.  Each call records a span: id, parent id, name,
labels, start, end and self time (duration minus the direct child
spans).  Spans stay in memory until `write`.
"""

import functools
import itertools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from halfline import fem

LADDER_RUNGS = {(float(L), float(h)): f"rung{i}" for i, (L, h) in enumerate(fem.DEFAULT_LADDER)}


def _inertia_labels(fm, *_args, **_kw):
    return (f"n{fm.n}", LADDER_RUNGS.get((fm.disc.L, fm.disc.h), "single"))


def _pair_n(pair, *_args, **_kw):
    return (f"n{pair.n}",)


def _bsm_n(bsm, *_args, **_kw):
    return (f"n{bsm.n}",)


def _count_dofs(counters, _result, fm, *_args, **_kw):
    counters["fem.dofs_swept"] += fm.n_dof


def _count_bs_dim(counters, bsm, *_args, **_kw):
    counters["birman.bs_dim_cubed"] += bsm.matrix.shape[0] ** 3


# (module, attribute, labels from the arguments, counters from the result)
TARGETS = (
    ("boundary", "classify", None, None),
    ("fem", "assemble_form_matrix", None, None),
    ("fem", "inertia_below", _inertia_labels, _count_dofs),
    ("fem", "eigenvalue_estimates", None, None),
    ("birman", "build_bs", _pair_n, _count_bs_dim),
    ("bound", "bargmann_bound", None, None),
    ("potentials", "split", None, None),
    ("potentials", "faddeev_moment", None, None),
    ("resolvent", "channel_kernel_grid", None, None),
    ("serialize", "emit_report", None, None),
)
# methods are looked up on the class
METHOD_TARGETS = (("birman", "BSMatrix", "eigenvalues", _bsm_n),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._ids = itertools.count(1)

    def wrap(self, name, fn, labels=None, count=None):
        """`fn` recording a span per call; `labels` and `count` take fn's arguments."""
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tags = labels(*args, **kwargs) if labels else ()
                spans.append((sid, parent, name, tags, start, end, end - start - frame[1]))
            if count:
                count(counters, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every binding of the targets inside the halfline package."""
        mods = {k.split(".")[-1]: m for k, m in sys.modules.items()
                if k == "halfline" or k.startswith("halfline.")}
        restore = []
        try:
            for mod, attr, labels, count in TARGETS:
                orig = getattr(mods[mod], attr)
                wrapper = self.wrap(f"{mod}.{attr}", orig, labels, count)
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            restore.append((m, key, orig))
                            setattr(m, key, wrapper)
            for mod, cls_name, attr, labels in METHOD_TARGETS:
                cls = getattr(mods[mod], cls_name)
                orig = vars(cls)[attr]
                restore.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(f"{mod}.{attr}", orig, labels))
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def totals(self) -> dict:
        """(name, label or '') -> [calls, self seconds], per name and per single label."""
        out = {}
        for _sid, _parent, name, tags, _start, _end, self_s in self.spans:
            for key in ((name, ""),) + tuple((name, t) for t in tags):
                acc = out.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += self_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, tags, start, end, self_s in self.spans:
                fh.write(json.dumps([sid, parent, name, list(tags), start, end, self_s]))
                fh.write("\n")
