"""Span tracing for the symext benchmark, applied from outside the program.

`Tracer.install()` replaces chosen public functions of the `symext`
modules with wrappers, in every `symext` namespace that binds them, so a
call is seen whether it goes through another module's import or through
the defining module's own global.  Nothing under `src/` changes.

A span opens at each wrapped call and records its name, start, end, the
span that was open when it began (its parent), and the id of the CLI
unit running at the time (0 outside any unit).  A call of a function
from inside its own span (a recursive self-call) is folded into that
span.  For a generator, each step of iteration is a span, flagged by
whether it yielded an item.  Some wrapped calls also record one outcome
bit (kernel verdict, literal fixation of a name).  A few functions are
only counted, without a span, because they are called too often to be
worth a span of their own.

Spans are kept in flat arrays while the run goes on and written out in
one file by `dump()`; `summarize()` reads such a file back and gives the
duration, self time (duration minus the time its child spans cover),
call count and outcome count of every span name.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

# (module, function, kind, outcome): kind is "call", "gen" or "count";
# outcome maps (args, result) to the flag bit kept for the span.
WRAPPED = (
    ("core", "generic_filters", "gen", None),
    ("core", "iter_conditions", "gen", None),
    ("core", "compatible", "call", None),
    ("names", "interpret", "call", None),
    ("names", "name_cells", "call", None),
    ("names", "make_name", "count", None),
    ("names", "check_name", "count", None),
    ("symmetry", "act_condition", "call", None),
    ("symmetry", "act_name", "call", lambda args, result: result is args[1]),
    ("symmetry", "check_support", "call", None),
    ("symmetry", "conjugation_check", "call", None),
    ("symmetry", "assemble_sequence", "call", None),
    ("symmetry", "is_hs", "call", None),
    ("symmetry", "infer_min_support", "call", None),
    ("symmetry", "generator_closure", "call", None),
    ("forcing", "forces", "call", None),
    ("forcing", "symmetry_lemma_check", "call", None),
    ("forcing", "act_formula", "call", None),
    ("instances", "in_stage", "call", None),
    ("instances", "build_instance", "call", None),
    ("instances", "build_staged_instance", "call", None),
    ("instances", "canonical_family", "count", None),
    ("kernels", "swap_kernel", "call", lambda args, result: result.verdict),
    ("kernels", "wisc_kernel", "call", lambda args, result: result.verdict),
)

MODULES = ("core", "names", "symmetry", "forcing", "instances", "kernels", "cli")

_FORCES_MODES = {"semantic", "recursive"}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")     # -1 no outcome, else 0 or 1
        self.counts: dict = {}
        self.units = 0
        self._current_unit = 0
        self._stack: list = []     # open span indices
        self._owners: list = []    # function owning each open span

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.unit.append(self._current_unit)
        self.start.append(0.0)
        self.end.append(0.0)
        self.flag.append(-1)
        stack.append(idx)
        return idx

    # -- wrappers ---------------------------------------------------

    def _wrap_call(self, fn, name, outcome, label=None):
        nid = None if label is not None else self._id(name)
        owners = self._owners
        stack = self._stack
        start, end, flag = self.start, self.end, self.flag
        open_span = self._open

        def traced(*args, **kwargs):
            if owners and owners[-1] is fn:
                return fn(*args, **kwargs)
            idx = open_span(nid if label is None else label(args, kwargs))
            owners.append(fn)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                owners.pop()
                start[idx] = t0
                end[idx] = t1
            if outcome is not None:
                flag[idx] = 1 if outcome(args, result) else 0
            return result

        return traced

    def _wrap_gen(self, fn, name):
        nid = self._id(name)
        owners = self._owners
        stack = self._stack
        start, end, flag = self.start, self.end, self.flag
        open_span = self._open

        def step(it):
            while True:
                idx = open_span(nid)
                owners.append(fn)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    flag[idx] = 0
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    owners.pop()
                    start[idx] = t0
                    end[idx] = t1
                flag[idx] = 1
                yield item

        def traced(*args, **kwargs):
            return step(fn(*args, **kwargs))

        return traced

    def _wrap_count(self, fn, name):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _forces_label(self):
        ids = {mode: self._id(f"forcing.forces.{mode}") for mode in _FORCES_MODES}

        def label(args, kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "semantic")
            return ids.get(mode, ids["semantic"])

        return label

    def install(self):
        """Import the symext modules and swap in the wrappers everywhere
        the originals are bound.  Call once, before the run."""
        mods = [importlib.import_module(f"symext.{m}") for m in MODULES]
        mods.append(importlib.import_module("symext"))
        for module, func, kind, outcome in WRAPPED:
            original = getattr(importlib.import_module(f"symext.{module}"), func)
            name = f"{module}.{func}"
            if kind == "gen":
                wrapper = self._wrap_gen(original, name)
            elif kind == "count":
                wrapper = self._wrap_count(original, name)
            elif func == "forces":
                wrapper = self._wrap_call(original, name, outcome,
                                          label=self._forces_label())
            else:
                wrapper = self._wrap_call(original, name, outcome)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        cli = importlib.import_module("symext.cli")
        cli.SUITES = {suite: (gen, self._unit_runner(run))
                      for suite, (gen, run) in cli.SUITES.items()}

    def _unit_runner(self, run):
        """Give every span opened while one CLI unit runs that unit's id."""
        def traced_unit(ctx, unit):
            self.units += 1
            self._current_unit = self.units
            try:
                return run(ctx, unit)
            finally:
                self._current_unit = 0
        return traced_unit

    def span(self, name: str):
        """A span opened by the benchmark's own code (`with` block)."""
        return _Span(self, self._id(name))

    # -- output -----------------------------------------------------

    def dump(self, path: str):
        """Write every span and count: one JSON header line, then the
        raw arrays in header order."""
        header = {"names": self.names, "counts": self.counts,
                  "units": self.units, "spans": len(self.start),
                  "arrays": [[key, arr.typecode] for key, arr in self._arrays()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in self._arrays():
                arr.tofile(fh)

    def _arrays(self):
        return [("name_id", self.name_id), ("parent", self.parent),
                ("unit", self.unit), ("start", self.start),
                ("end", self.end), ("flag", self.flag)]


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.tracer._owners.append(None)
        self.tracer.start[self.idx] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.end[self.idx] = perf_counter()
        self.tracer._stack.pop()
        self.tracer._owners.pop()
        return False


def load(path: str):
    """Read a file written by `Tracer.dump` into (header, arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for key, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, header["spans"])
            arrays[key] = arr
    return header, arrays


def summarize(path: str) -> dict:
    """Per span name: calls, total_s, self_s and flagged (spans whose
    flag is 1); plus the counters and the number of CLI units."""
    header, arr = load(path)
    name_id, parent, flag = arr["name_id"], arr["parent"], arr["flag"]
    start, end = arr["start"], arr["end"]
    covered = array("d", bytes(8 * header["spans"]))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    rows = [{"calls": 0, "total_s": 0.0, "self_s": 0.0, "flagged": 0}
            for _ in header["names"]]
    for i, nid in enumerate(name_id):
        row = rows[nid]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - covered[i]
        if flag[i] == 1:
            row["flagged"] += 1
    return {"spans": dict(zip(header["names"], rows)), "counts": header["counts"],
            "units": header["units"]}
