"""Spans and counters around calls into gmewit, installed from outside.

Nothing under ``src/`` knows about this module.  ``install`` replaces the
public functions listed in ``SPANS`` (and the numpy/scipy eigensolvers and
``numpy.kron``) with wrappers, in every loaded ``gmewit`` module that holds a
reference to them.

Three kinds of wrapper:

* span — records name, start, end, parent span and op id; spans stay in
  memory and are written out at the end of a run.
* leaf — eigensolves, ``kron`` products and ``assert_hermitian``, called up
  to ~10^5 times per op.  They are counted and timed but not stored one by
  one: each call adds its duration to the innermost open span (``leaf_s``)
  and its count to every open span's name, so self time and per-span ratios
  are still derived from the spans.
* observer — keeps the result of the outer L_ε ``minimize`` (nfev, success,
  fun per restart) without timing it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

#: Public functions timed as spans: (module, attribute, span name).
SPANS = [
    ("gmewit.fidelity", "numeric_l_eps", "fidelity.numeric_l_eps"),
    ("gmewit.bounds", "stabilizer_bisep_bound_numeric", "bounds.stabilizer_bisep_bound_numeric"),
    ("gmewit.bounds", "cluster_witness_bounds", "bounds.cluster_witness_bounds"),
    ("gmewit.bounds", "w_witness_bounds", "bounds.w_witness_bounds"),
    ("gmewit.bounds", "bisep_brute_force", "bounds.bisep_brute_force"),
    ("gmewit.witnesses", "mermin_witness", "witnesses.build"),
    ("gmewit.witnesses", "stabilizer_witness", "witnesses.build"),
    ("gmewit.witnesses", "w_witness_d3", "witnesses.build"),
    ("gmewit.witnesses", "cluster_witness_c4", "witnesses.build"),
    ("gmewit.robustness", "threshold_visibility", "robustness.threshold_visibility"),
    ("gmewit.robustness", "noisy_witness_value", "robustness.noisy_witness_value"),
    ("gmewit.robustness", "max_i43", "robustness.max_i43"),
    ("gmewit.measurement", "fidelity_from_counts", "measurement.fidelity_from_counts"),
    ("gmewit.measurement", "CountTable.from_csv", "measurement.CountTable.from_csv"),
    ("gmewit.states", "apply_noise", "states.apply_noise"),
    ("gmewit.cli", "emit", "cli.emit"),
]

#: Calls whose results are kept, without a span of their own (a span around
#: the outer ``minimize`` would take the L_ε search's self time from
#: ``numeric_l_eps``): (module, attribute, name).
OBSERVERS = [
    ("gmewit.fidelity", "minimize", "fidelity.minimize"),
]

#: Leaf calls: (module, attribute, counter name).
LEAVES = [
    ("numpy.linalg", "eigvalsh", "linalg.eigensolve"),
    ("numpy.linalg", "eigh", "linalg.eigensolve"),
    ("scipy.linalg", "eigvalsh", "linalg.eigensolve"),
    ("scipy.linalg", "eigh", "linalg.eigensolve"),
    ("numpy", "kron", "linalg.kron"),
    ("gmewit.linalg", "assert_hermitian", "linalg.assert_hermitian"),
]


class Tracer:
    """In-memory span list plus per-name call counts and busy time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.matrices = 0
        #: (enclosing span name, leaf name) -> leaf calls made inside it.
        self.within: dict[tuple[str, str], int] = defaultdict(int)
        #: name -> [(op id, result)] for OBSERVERS.
        self.results: dict[str, list] = defaultdict(list)
        self.op = None
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op, "leaf_s": 0.0})
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        self._stack.pop()
        name = span["name"]
        self._open[name] -= 1
        self.calls[name] += 1
        if self._open[name] == 0:       # outermost call of this name
            self.busy[name] += span["end"] - span["start"]

    def wrap_span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_observer(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results[name].append((self.op, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- leaves --------------------------------------------------------------
    def wrap_leaf(self, name: str, fn, batched: bool = False):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls[name] += 1
                self.busy[name] += dt
                if batched:
                    shape = getattr(args[0], "shape", ()) if args else ()
                    batch = 1
                    for d in shape[:-2]:
                        batch *= int(d)
                    self.matrices += batch
                if self._stack:
                    self.spans[self._stack[-1]]["leaf_s"] += dt
                    for open_name, depth in self._open.items():
                        if depth:
                            self.within[(open_name, name)] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived ---------------------------------------------------------------
    def self_time(self, name: str) -> float:
        """Σ over spans called ``name`` of duration minus child spans and leaves."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span["name"] == name and span["end"] is not None:
                total += span["end"] - span["start"] - child[idx] - span["leaf_s"]
        return total

    def summary(self) -> dict:
        """JSON-serialisable counters (spans excluded)."""
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "matrices": self.matrices,
                "within": [[a, b, n] for (a, b), n in self.within.items()]}

    def merge(self, summary: dict) -> None:
        """Add the counters of another process's ``summary()``."""
        for k, v in summary["calls"].items():
            self.calls[k] += v
        for k, v in summary["busy"].items():
            self.busy[k] += v
        self.matrices += summary["matrices"]
        for a, b, n in summary["within"]:
            self.within[(a, b)] += n


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


def _replace_everywhere(orig, new) -> None:
    """Point every gmewit module attribute (and module-level dict value)
    that holds ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gmewit" or modname.startswith("gmewit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is orig:
                        value[dkey] = new


def install(tracer: Tracer) -> None:
    """Wrap every entry of LEAVES, SPANS and OBSERVERS."""
    import gmewit  # noqa: F401  (ensures the package and its modules are loaded)
    for module in {m for m, _, _ in SPANS}:
        importlib.import_module(module)
    for module, attr, name in LEAVES:
        owner, key, fn = _resolve(module, attr)
        wrapped = tracer.wrap_leaf(name, fn, batched=name == "linalg.eigensolve")
        setattr(owner, key, wrapped)
        _replace_everywhere(fn, wrapped)
    for module, attr, name in SPANS:
        owner, key, fn = _resolve(module, attr)
        raw = vars(owner).get(key)
        if isinstance(raw, classmethod):
            setattr(owner, key, classmethod(tracer.wrap_span(name, raw.__func__)))
            continue
        wrapped = tracer.wrap_span(name, fn)
        setattr(owner, key, wrapped)
        _replace_everywhere(fn, wrapped)
    for module, attr, name in OBSERVERS:
        owner, key, fn = _resolve(module, attr)
        setattr(owner, key, tracer.wrap_observer(name, fn))

