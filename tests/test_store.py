"""Everything built for an instance lives in its store, so it is freed
with the instance: a process that checks many instances does not grow."""

import gc
import io
import json
import tracemalloc
import weakref
from pathlib import Path

from symext import (Condition, FiberPermutation, Instance, Mem, Poset, act_name,
                    canonical_family, check_name, conjugation_check, forces, is_hs,
                    ordinal, swap_kernel, wisc_kernel)
from symext import core
from symext.cli import parse_instance_spec, run_checks

SPECS = Path(__file__).parent.parent / "specs"


def _spec(i):
    """The i-th of a run of distinct two-site, 4-cell specs."""
    return json.dumps({"poset": {"elements": [f"a{i}", f"b{i}"], "leq": []},
                       "n": 2, "v": 1, "c": 1})


def _check(i):
    out = io.StringIO()
    assert run_checks(parse_instance_spec(_spec(i)), "all",
                      overrides={"max_dom": 1}, out=out) == 0
    assert out.getvalue()


def test_checking_many_instances_does_not_grow_memory():
    # with module-global memos the 20 specs below grew traced memory by
    # about 2.2 MB; the warm-up fills the global HF registry and ordinals
    tracemalloc.start()
    try:
        _check(0)
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for i in range(1, 21):
            _check(i)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert growth < 1_000_000, f"traced memory grew by {growth} bytes"


def _use(inst):
    family = canonical_family(inst)
    row = family.rows[("a", 0)]
    for mode in ("semantic", "recursive"):
        assert forces(Condition.top(inst),
                      Mem(check_name(inst, ordinal(0)), family.sites["a"]),
                      mode) is False
    pi = FiberPermutation.transposition(inst, "a", 0, 1)
    assert act_name(pi, row) is family.rows[("a", 1)]
    assert is_hs(inst, family.sites["a"])


def _use_kernels(flat, staged):
    """Fill the kernels' memos: the default names per support and the
    name checks per (transposition, name); and, through
    conjugation_check, the stabilizer generators per support (the support
    and its image) and their conjugates by the latest permutation."""
    assert swap_kernel(flat, Condition.top(flat), (), flat.sites[0], 0).verdict
    y = canonical_family(staged).sites[0]
    assert wisc_kernel(staged, 0, y, 1, Condition.top(staged), ()).verdict
    pi = FiberPermutation.transposition(flat, flat.sites[0], 0, 1)
    assert conjugation_check(flat, pi, {(flat.sites[0], 0)}).ok
    assert flat.store.swap_names and flat.store.name_checks
    assert staged.store.name_checks
    assert len(flat.store.fix_generators) == 2
    assert flat.store.conjugates[0] is pi


def test_dropped_instance_is_freed():
    inst = Instance.flat(Poset.antichain(["a", "b"]), 2, 1, 1)
    _use(inst)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


def test_kernel_memos_are_freed_with_their_instances():
    flat = Instance.flat(Poset.antichain(["a", "b"]), 2, 1, 1)
    staged = Instance.staged((3, 4), 1)
    _use_kernels(flat, staged)
    refs = [weakref.ref(flat), weakref.ref(staged)]
    del flat, staged
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_running_the_kernels_on_many_instances_does_not_grow_memory():
    def use(i):
        _use_kernels(Instance.flat(Poset.antichain([f"a{i}", f"b{i}"]), 3, 2, 1),
                     Instance.staged((3, 4 + i % 3), 1))

    tracemalloc.start()
    try:
        use(0)
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for i in range(1, 21):
            use(i)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert growth < 200_000, f"traced memory grew by {growth} bytes"


class _Counting(dict):
    """A memo that counts the lookups that find their key."""

    def __init__(self):
        super().__init__()
        self.hits = 0

    def _found(self, key) -> bool:
        found = dict.__contains__(self, key)
        self.hits += found
        return found

    def __contains__(self, key):
        return self._found(key)

    def __getitem__(self, key):
        self._found(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._found(key)
        return dict.get(self, key, default)


def test_every_store_memo_is_hit(monkeypatch):
    # a memo no run reads back is bookkeeping to delete: across a
    # reference run at max_dom 3 and a staged run, every dict memo of the
    # store, and the conjugate table, finds a key at least once
    memos = {field for field, value in vars(core.Store()).items()
             if isinstance(value, dict)} | {"conjugates"}
    stores = []

    class CountingStore(core.Store):
        def __init__(self):
            super().__init__()
            for field, value in vars(self).items():
                if isinstance(value, dict):
                    setattr(self, field, _Counting())
            self.conjugates = (None, _Counting())
            stores.append(self)

    monkeypatch.setattr(core, "Store", CountingStore)
    for name, overrides in (("reference.json", {"max_dom": 3}), ("staged.json", {})):
        spec = parse_instance_spec((SPECS / name).read_text())
        assert run_checks(spec, "all", overrides=overrides, out=io.StringIO()) == 0
    hits = {}
    for store in stores:
        for field, value in vars(store).items():
            table = value[1] if field == "conjugates" else value
            if isinstance(table, _Counting):
                hits[field] = hits.get(field, 0) + table.hits
    assert set(hits) == memos
    assert [field for field, count in hits.items() if not count] == []
