"""Everything built for an instance lives in its store, so it is freed
with the instance: a process that checks many instances does not grow."""

import gc
import io
import json
import tracemalloc
import weakref

from symext import (Condition, FiberPermutation, Instance, Mem, Poset, act_name,
                    canonical_family, check_name, forces, is_hs, ordinal)
from symext.cli import parse_instance_spec, run_checks


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


def test_dropped_instance_is_freed():
    inst = Instance.flat(Poset.antichain(["a", "b"]), 2, 1, 1)
    _use(inst)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
