"""In-memory span tracer that times homcurv's layers from outside.

`Tracer.installed()` replaces each traced public function with a wrapper in
every loaded ``homcurv`` module namespace that holds it (``homcurv.cli.certify``
as well as ``homcurv.certify.certify``), and restores the originals on exit.
A wrapper records a span -- name, start, end, parent span, item id -- only
while an item is active, so the benchmark's own correctness checks, which
call the same functions between items, leave no spans.  The untraced
benchmark never calls `installed()`, so it runs the unmodified functions.

Spans live in typed arrays (36 bytes each) and are written out once, at
the end, by `save`.  Self time is a span's duration minus the durations of
its direct children; calls are nested and single-threaded, so children never
overlap.  Observers that read a return value (to count evaluations, found
witnesses, bytes) run with the clock paused, so they add to no span.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path) of every traced public function.  The span name is
# the module's short name and the attribute, e.g. "curvature.sectional".
TARGETS = (
    ("homcurv.curvature", "Curvature.sectional"),
    ("homcurv.curvature", "Curvature.sectional_gradient"),
    ("homcurv.curvature", "Curvature.numerator"),
    ("homcurv.certify", "certify"),
    ("homcurv.obstructions", "commuting_witness"),
    ("homcurv.obstructions", "min_eigenvalue_witness"),
    ("homcurv.obstructions", "minimize"),
    ("homcurv.obstructions", "rank_parity_check"),
    ("homcurv.metrics", "sample_metric"),
    ("homcurv.metrics", "validate_metric"),
    ("homcurv.isotypic", "symmetric_commutant_basis"),
    ("homcurv.isotypic", "decompose"),
    ("homcurv.spaces", "catalog_build"),
    ("homcurv.algebra", "build_algebra"),
    ("homcurv.serialize", "space_document"),
    ("homcurv.serialize", "space_from_document"),
    ("homcurv.serialize", "atomic_write_json"),
    ("homcurv.cli", "main"),
    ("homcurv.acceptance", "run_one"),
)

ITEM = "item"   # root span of one workload item; its self time is outside every layer


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def homcurv_functions() -> dict[tuple[str, str], object]:
    """Every function-valued attribute of every loaded homcurv module and class."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "homcurv" or mod_name.startswith("homcurv.")):
            continue
        for attr, value in vars(mod).items():
            if callable(value) and not isinstance(value, type):
                found[(mod_name, attr)] = value
            elif isinstance(value, type) and value.__module__ == mod_name:
                for meth, fn in vars(value).items():
                    if callable(fn):
                        found[(mod_name, f"{attr}.{meth}")] = fn
    return found


class Tracer:
    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item_id = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._item: int | None = None
        self._paused = 0.0

    # clock and spans -------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _open(self, name: str) -> int:
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_id.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def item(self, item_id: int):
        """Root span for one workload item; wrappers record only inside it."""
        self._item = item_id
        idx = self._open(ITEM)
        try:
            yield
        finally:
            self._close(idx)
            self._item = None

    def wrap(self, name: str, fn):
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                t0 = time.perf_counter()
                observe(tracer.counters, result, args, kwargs)
                tracer._paused += time.perf_counter() - t0
            return result

        traced.__homcurv_traced__ = name
        return traced

    # installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every namespace holding it."""
        before = homcurv_functions()
        wrappers = {}
        for module, attr in TARGETS:
            owner = sys.modules[module]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[attr.rsplit(".", 1)[-1]]
            wrappers[id(original)] = (original, self.wrap(span_name(module, attr), original))
        restore = []
        for (mod_name, attr), value in before.items():
            hit = wrappers.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            owner = sys.modules[mod_name]
            for part in attr.split(".")[:-1]:
                owner = vars(owner)[part]
            leaf = attr.rsplit(".", 1)[-1]
            setattr(owner, leaf, hit[1])
            restore.append((owner, leaf, value))
        try:
            yield
        finally:
            for owner, leaf, value in restore:
                setattr(owner, leaf, value)

    # analysis --------------------------------------------------------------

    def arrays(self):
        """(names, name ids, start, end, parent, item id, self time) as arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return (self.names, np.frombuffer(self.name_id, dtype=np.int32), start,
                end, parent, np.frombuffer(self.item_id, dtype=np.int64),
                dur - child)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        names, nid, start, end, _, _, self_t = self.arrays()
        dur = end - start
        calls = np.bincount(nid, minlength=len(names))
        total = np.bincount(nid, weights=dur, minlength=len(names))
        own = np.bincount(nid, weights=self_t, minlength=len(names))
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])} for i, n in enumerate(names)}

    def count_under(self, child: str, ancestor: str) -> int:
        """Number of `child` spans that have an `ancestor` span above them."""
        names, nid, _, _, parent, _, _ = self.arrays()
        if child not in names or ancestor not in names:
            return 0
        anc_id, child_id = names.index(ancestor), names.index(child)
        inside = np.zeros(len(nid), dtype=bool)
        for i in range(len(nid)):           # parents precede their children
            p = parent[i]
            inside[i] = nid[i] == anc_id or (p >= 0 and inside[p])
        return int(np.sum(inside & (nid == child_id)))

    def save(self, path: str) -> None:
        names, nid, start, end, parent, item, _ = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=nid,
                            start=start, end=end, parent=parent, item=item)
