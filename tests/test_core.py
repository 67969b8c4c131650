import itertools
import math
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symext
from symext import (Compat, Condition, FiberPermutation, Instance, InvalidInstance,
                    MismatchedInstance, Poset, act_condition, build_instance,
                    build_staged_instance, compatible, generic_filters,
                    iter_conditions)

from _oracles import extends, total_assignments


def cond(inst, mapping):
    return Condition(inst, mapping)


class TestCompatible:
    def test_disjoint_domains(self, reference):
        inst, _ = reference
        p = cond(inst, {("a", 0, 0): 1})
        q = cond(inst, {("b", 0, 0): 1})
        result = compatible(p, q)
        assert result.ok and len(result.witness) == 2
        assert extends(result.witness, p) and extends(result.witness, q)

    def test_disagreement(self, reference):
        inst, _ = reference
        result = compatible(cond(inst, {("a", 0, 0): 1}), cond(inst, {("a", 0, 0): 0}))
        assert not result.ok
        assert result.conflict == ("a", 0, 0)

    def test_swapped_condition_compatible(self, swap_scale):
        # the kernel's q and its relabeling agree on their common domain
        inst, _ = swap_scale
        q = cond(inst, {("a", 0, 0): 1, ("b", 0, 0): 1})
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        result = compatible(q, act_condition(pi, q))
        assert result.ok and len(result.witness) == 3

    def test_agreement_iff_common_total(self, tiny):
        inst, _ = tiny
        conds = list(iter_conditions(inst))
        for p, q in itertools.product(conds, repeat=2):
            result = compatible(p, q)
            exists = any(
                all(assign[c] == b for c, b in list(p.items) + list(q.items))
                for assign in total_assignments(inst.cells))
            assert result.ok == exists
            if result.witness is not None:
                assert extends(result.witness, p) and extends(result.witness, q)

    def test_merge_is_the_weakest_common_extension(self, tiny):
        # the witness extends both conditions and carries nothing else
        inst, _ = tiny
        conds = list(iter_conditions(inst))
        for p, q in itertools.product(conds, repeat=2):
            witness = compatible(p, q).witness
            if witness is not None:
                assert set(witness.items) == set(p.items) | set(q.items)
                assert [r for r in conds if extends(r, p) and extends(r, q)
                        and not extends(r, witness)] == []

    def test_cutoff_exceeded_note(self):
        inst, _ = build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 2)
        p = cond(inst, {("a", 0, 0): 1, ("a", 0, 1): 1})
        q = cond(inst, {("b", 0, 0): 1})
        result = compatible(p, q)
        assert result.ok and result.witness is None and result.cutoff_exceeded


class TestGenericFilters:
    def test_count_is_two_to_the_free_cells(self, tiny):
        inst, _ = tiny
        assert len(inst.cells) == 3
        assert sum(1 for _ in generic_filters(inst)) == 2 ** 3
        below = Condition(inst, {("a", 0, 0): 1})
        assert sum(1 for _ in generic_filters(inst, below)) == 2 ** 2
        below = Condition(inst, {("a", 0, 0): 1, ("a", 1, 0): 0})
        assert sum(1 for _ in generic_filters(inst, below)) == 2

    def test_reference_count_is_two_to_the_cells(self, reference):
        inst, _ = reference
        count = sum(1 for _ in generic_filters(inst))
        assert count == 2 ** len(inst.cells) == 256

    def test_deterministic_lexicographic(self, tiny):
        inst, _ = tiny
        runs = [tuple(g.bits for g in generic_filters(inst)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert list(runs[0]) == sorted(runs[0])

    def test_membership_is_agreement(self, tiny):
        inst, _ = tiny
        for filt in generic_filters(inst):
            for p in iter_conditions(inst):
                agrees = all(filt.bit(c) == b for c, b in p.items)
                assert filt.contains(p) == agrees

    def test_upward_closure(self, tiny):
        inst, _ = tiny
        conds = list(iter_conditions(inst))
        for filt in generic_filters(inst):
            for p in conds:
                if not filt.contains(p):
                    continue
                for q in conds:
                    if extends(p, q):
                        assert filt.contains(q)

    def test_nontriviality_below_total_size(self, tiny):
        # every condition with spare cells has two incompatible extensions
        inst, _ = tiny
        for p in iter_conditions(inst):
            if len(p) >= len(inst.cells):
                continue
            free = next(c for c in inst.cells if c not in dict(p.items))
            q0 = p.extend_with({free: 0})
            q1 = p.extend_with({free: 1})
            assert extends(q0, p) and extends(q1, p)
            assert not compatible(q0, q1).ok


class TestValidation:
    def test_bad_cell_rejected(self, reference):
        inst, _ = reference
        with pytest.raises(InvalidInstance):
            cond(inst, {("a", 5, 0): 1})

    def test_bad_bit_rejected(self, reference):
        inst, _ = reference
        with pytest.raises(InvalidInstance):
            cond(inst, {("a", 0, 0): 2})

    def test_conflicting_bits_rejected(self, reference):
        inst, _ = reference
        with pytest.raises(InvalidInstance):
            Condition(inst, [(("a", 0, 0), 1), (("a", 0, 0), 0)])

    def test_domain_cutoff_enforced(self):
        inst, _ = build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 2)
        with pytest.raises(InvalidInstance):
            cond(inst, {("a", 0, 0): 1, ("a", 0, 1): 1, ("a", 1, 0): 1})

    def test_staged_cumulative_bound(self, staged_pair):
        staged, _ = staged_pair
        # three stage-0 cells break the stage-0 bound (< 3)
        with pytest.raises(InvalidInstance):
            cond(staged, {(0, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1})
        # two at stage 0 plus one at stage 1 stays within both bounds
        ok = cond(staged, {(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1})
        assert len(ok) == 3


def _validated_conditions(inst, max_dom):
    """Every condition of at most max_dom cells, in iter_conditions'
    order, each built and checked by Condition itself."""
    out = []
    for k in range(max_dom + 1):
        for combo in itertools.combinations(inst.cells, k):
            for bits in itertools.product((0, 1), repeat=k):
                try:
                    out.append(Condition(inst, zip(combo, bits)))
                except InvalidInstance:
                    pass
    return out


@pytest.mark.parametrize("build, max_dom", [
    # 8 cells, at most 3 set
    (lambda: build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 3), 8),
    # at most 2 cells on stage 0 binds once 3 may be set
    (lambda: build_staged_instance((3, 4, 5), 1), 3),
], ids=["flat-d3", "staged-3-4-5"])
def test_iter_conditions_yields_what_condition_builds(build, max_dom):
    inst, _ = build()
    got = list(iter_conditions(inst, max_dom))
    want = _validated_conditions(inst, max_dom)
    assert len(got) == len(want)
    # the bound rejects some of the candidate cell sets
    assert len(got) < sum(math.comb(len(inst.cells), k) << k for k in range(max_dom + 1))
    for p, q in zip(got, want):
        assert p == q and p.items == q.items
        assert hash(p) == hash(q)


def test_conditions_keep_one_copy_of_their_items():
    # a condition holds its sorted items and nothing built from them: with
    # a dict copy beside them each condition below took 499 traced bytes
    inst = Instance.staged((3, 12), 1)
    inst.cells, inst.cell_index  # the instance's tables, built before tracing
    tracemalloc.start()
    try:
        conds = list(iter_conditions(inst, 2))
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(conds) == 46_819
    assert traced / len(conds) <= 350, f"{traced / len(conds):.0f} bytes per condition"


# exhaustively indexed sampling for the algebra laws at a slightly larger scale
def _conditions(inst, max_dom=2):
    return list(iter_conditions(inst, max_dom))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compatible_symmetric_sampled(reference, data):
    inst, _ = reference
    conds = _conditions(inst)
    p, q = (data.draw(st.sampled_from(conds)) for _ in range(2))
    assert compatible(p, q).ok == compatible(q, p).ok


def test_public_api_lists_no_modules():
    # symext's submodules are importable, but they are not API names
    modules = [name for name in symext.__all__
               if isinstance(getattr(symext, name), types.ModuleType)]
    assert symext.__all__ and not modules


class TestRecords:
    """The value classes are namedtuple subclasses, and Instance a frozen
    __slots__ class: none takes a new attribute, each has the dataclass
    repr, keyword and default arguments, and value equality."""

    def test_instance_and_poset_reprs(self):
        inst, _ = build_instance(Poset.from_pairs(["a", "b", "c"], [("a", "b")]),
                                 2, 1, 1)
        assert repr(inst.poset) == "Poset(['a', 'b', 'c'], [('a', 'b')])"
        assert repr(inst) == (
            "Instance(kind='flat', poset=Poset(['a', 'b', 'c'], [('a', 'b')]), "
            "fiber_counts=(2, 2, 2), slot_counts=(1, 1, 1), support_cutoff=1, "
            "limits=((3, 6),), moved_bounds=(2, 2, 2))")
        staged, _ = build_staged_instance([3, 4], 1)
        assert repr(staged) == (
            "Instance(kind='staged', poset=Poset([0, 1], [(0, 1)]), "
            "fiber_counts=(3, 4), slot_counts=(3, 4), support_cutoff=1, "
            "limits=((1, 2), (2, 3)), moved_bounds=(2, 3))")

    def test_mismatch_message_names_both_instances(self, reference):
        inst, _ = reference
        other, _ = build_instance(Poset.antichain(["a", "b"]), 3, 1, 1)
        with pytest.raises(MismatchedInstance) as info:
            compatible(Condition.top(inst), Condition.top(other))
        assert str(info.value) == f"{inst!r} vs {other!r}"

    def test_frozen(self, reference):
        inst, _ = reference
        for record, field in ((inst, "kind"), (inst.poset, "elements"),
                              (compatible(Condition.top(inst), Condition.top(inst)),
                               "ok")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            inst.extra = 1

    def test_no_new_attributes(self, reference):
        # a record keeps no __dict__ to take an attribute its class lacks
        inst, _ = reference
        for record in (inst.poset, Compat(True)):
            with pytest.raises(AttributeError):
                record.extra = 1
            assert not hasattr(record, "__dict__")

    def test_replace_validates(self):
        poset = Poset.antichain(["a", "b"])
        assert poset._replace(elements=("b", "a")) == poset
        with pytest.raises(InvalidInstance):
            poset._replace(elements=("a", "a"))

    def test_keywords_defaults_and_value_equality(self):
        assert Compat(True) == Compat(ok=True, witness=None, cutoff_exceeded=False)
        assert repr(Compat(False, conflict=("a", 0, 0))) == (
            "Compat(ok=False, witness=None, cutoff_exceeded=False, "
            "conflict=('a', 0, 0))")
        assert hash(Compat(True)) == hash(Compat(True))
        assert Compat(True) != Compat(True, cutoff_exceeded=True)
        for args, kwargs in (((), {}), ((True, None, False, None, 1), {}),
                             ((True,), {"ok": True}), ((True,), {"bogus": 1})):
            with pytest.raises(TypeError):
                Compat(*args, **kwargs)

    def test_validation_runs_on_construction(self):
        with pytest.raises(InvalidInstance):
            Poset(("a", "a"), frozenset())
        inst, _ = build_instance(Poset.antichain(["a", "b"]), 2, 1, 1)
        with pytest.raises(InvalidInstance):
            Instance("flat", inst.poset, (0, 2), (1, 1), 1, ((2, 4),), (2, 2))
        twin = Instance(*(getattr(inst, name) for name in Instance._fields))
        assert twin == inst and hash(twin) == hash(inst) and twin is not inst
