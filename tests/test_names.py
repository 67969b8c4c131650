import itertools

import pytest

from symext import (Condition, GenericFilter, MismatchedInstance, act_name,
                    check_name, fix_generators, generic_filters, hf, interpret,
                    make_name, name_cells, ordinal, pair_name, set_name)
from symext.names import EMPTY_HF, EMPTY_NAME

from _oracles import (frozen_ordinal, hf_to_frozen, naive_interpret,
                      naive_name_cells, total_assignments)


class TestHF:
    def test_extensional_identity(self):
        assert hf() is EMPTY_HF
        a = hf([hf(), hf([hf()])])
        b = hf([hf([hf()]), hf()])
        assert a is b

    def test_duplicates_collapse(self):
        assert hf([EMPTY_HF, EMPTY_HF]) is hf([EMPTY_HF])

    def test_normalization_idempotent(self):
        a = hf([ordinal(2), ordinal(0)])
        assert hf(a.elems) is a

    def test_ordinals_von_neumann(self):
        assert ordinal(0) is EMPTY_HF
        assert ordinal(2).elems == (ordinal(0), ordinal(1))
        assert hf_to_frozen(ordinal(3)) == frozen_ordinal(3)


class TestCheckName:
    def test_empty(self, reference):
        inst, _ = reference
        assert check_name(inst, EMPTY_HF) is EMPTY_NAME
        assert EMPTY_NAME.rank == 0

    def test_singleton(self, reference):
        inst, _ = reference
        nm = check_name(inst, ordinal(1))
        assert nm.entries == ((Condition.top(inst), EMPTY_NAME),)
        assert nm.rank == 1

    def test_two_as_von_neumann(self, reference):
        inst, _ = reference
        nm = check_name(inst, ordinal(2))
        assert len(nm.entries) == 2 and nm.rank == 2

    def test_interpretation_is_identity(self, tiny):
        # exhaustive over all filters of the 3-cell instance
        inst, _ = tiny
        for x in (ordinal(0), ordinal(2), hf([hf([EMPTY_HF])])):
            nm = check_name(inst, x)
            for filt in generic_filters(inst):
                assert interpret(nm, filt) is x


class TestSetName:
    def test_empty_collection(self, reference):
        inst, _ = reference
        assert set_name(inst, []) is EMPTY_NAME

    def test_rows_bundle_to_site_name(self, reference):
        # matches the canonical builder output, as one interned object
        inst, family = reference
        bundled = set_name(inst, [family.rows[("a", 0)], family.rows[("a", 1)]])
        assert bundled is family.sites["a"]

    def test_singleton_interpretation(self, tiny):
        inst, _ = tiny
        nm = set_name(inst, [check_name(inst, ordinal(1))])
        for filt in generic_filters(inst):
            assert interpret(nm, filt) is hf([ordinal(1)])

    def test_interpretation_is_set_of_interpretations(self, tiny):
        inst, family = tiny
        members = [family.rows[("a", 0)], family.rows[("a", 2)],
                   check_name(inst, ordinal(1))]
        bundled = set_name(inst, members)
        for filt in generic_filters(inst):
            expected = hf(interpret(m, filt) for m in members)
            assert interpret(bundled, filt) is expected


class TestPairName:
    def test_pair_of_equal_elements(self, tiny):
        inst, _ = tiny
        nm = pair_name(inst, EMPTY_NAME, EMPTY_NAME)
        filt = next(generic_filters(inst))
        # Kuratowski pair of equal sets collapses to {{x}}
        assert hf_to_frozen(interpret(nm, filt)) == frozenset({frozenset({frozenset()})})

    def test_pair_interpretation_is_kuratowski(self, tiny):
        inst, _ = tiny
        nm = pair_name(inst, check_name(inst, ordinal(0)), check_name(inst, ordinal(1)))
        x, y = ordinal(0), ordinal(1)
        pair = hf([hf([x]), hf([x, y])])
        assert hf_to_frozen(pair) == frozenset({
            frozenset({frozen_ordinal(0)}),
            frozenset({frozen_ordinal(0), frozen_ordinal(1)})})
        for filt in generic_filters(inst):
            assert interpret(nm, filt) is pair

    def test_action_commutes_with_pairing(self, swap_scale):
        # recompute both routes for a fiber swap
        from symext import FiberPermutation, act_name
        inst, family = swap_scale
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        x, y = family.rows[("a", 0)], family.rows[("b", 1)]
        lhs = act_name(pi, pair_name(inst, x, y))
        rhs = pair_name(inst, act_name(pi, x), act_name(pi, y))
        assert lhs is rhs


class TestInterpret:
    def test_reference_row_interpretation(self, reference):
        # total assignment with exactly one 1 at ((a,0),0); expected values
        # frozen from the entry-by-entry oracle
        inst, family = reference
        assign = {cell: 0 for cell in inst.cells}
        assign[("a", 0, 0)] = 1
        filt = GenericFilter.from_assignment(inst, assign)
        row = family.rows[("a", 0)]
        assert naive_interpret(row, assign) == frozenset({frozenset()})
        assert interpret(row, filt) is hf([ordinal(0)])

    def test_reference_site_interpretation_collapses(self, reference):
        inst, family = reference
        assign = {cell: 0 for cell in inst.cells}
        assign[("a", 0, 0)] = 1
        filt = GenericFilter.from_assignment(inst, assign)
        site = family.sites["a"]
        expected = frozenset({frozenset({frozenset()}), frozenset()})
        assert naive_interpret(site, assign) == expected
        assert hf_to_frozen(interpret(site, filt)) == expected
        # both rows empty: extensional collapse to a singleton
        zero = GenericFilter.from_assignment(inst, dict.fromkeys(inst.cells, 0))
        assert len(interpret(site, zero)) == 1

    def test_matches_oracle_everywhere(self, tiny):
        inst, family = tiny
        pool = [family.rows[("a", 0)], family.sites["a"],
                family.regions[frozenset("a")], family.graph,
                check_name(inst, ordinal(2))]
        for assign in total_assignments(inst.cells):
            filt = GenericFilter.from_assignment(inst, assign)
            for nm in pool:
                assert hf_to_frozen(interpret(nm, filt)) == naive_interpret(nm, assign)

    def test_monotone_in_entries(self, tiny):
        inst, family = tiny
        base = family.rows[("a", 0)]
        extra = make_name(list(base.entries)
                          + [(Condition.top(inst), check_name(inst, ordinal(1)))])
        for filt in generic_filters(inst):
            small = interpret(base, filt)
            large = interpret(extra, filt)
            assert all(e in large for e in small)

    def test_mismatched_instance(self, reference, swap_scale):
        inst, family = reference
        other, _ = swap_scale
        filt = next(generic_filters(other))
        with pytest.raises(MismatchedInstance):
            interpret(family.rows[("a", 0)], filt)


class TestNameStructure:
    def test_interning_structural_equality(self, reference):
        inst, family = reference
        rebuilt = make_name(tuple(family.rows[("a", 0)].entries))
        assert rebuilt is family.rows[("a", 0)]

    def test_entries_deduplicated_and_sorted(self, reference):
        inst, _ = reference
        top = Condition.top(inst)
        nm = make_name([(top, EMPTY_NAME), (top, EMPTY_NAME)])
        assert len(nm.entries) == 1

    def test_rank_strictly_decreases_into_entries(self, reference):
        _, family = reference
        for _, nm in family.members():
            for _, sub in nm.entries:
                assert sub.rank < nm.rank

    def test_name_cells(self, reference):
        _, family = reference
        cells = name_cells(family.rows[("a", 0)])
        assert cells == frozenset({("a", 0, 0), ("a", 0, 1)})

    @pytest.mark.parametrize("fixture", ["reference", "staged_pair"])
    def test_name_cells_memo_matches_closure_walk(self, fixture, request):
        inst, family = request.getfixturevalue(fixture)
        members = [nm for _, nm in family.members()]
        images = [act_name(g, nm) for g in fix_generators(inst, ()) for nm in members]
        names = members + images
        names += [set_name(inst, names), set_name(inst, members[:2])]
        names += [pair_name(inst, x, y) for x, y in zip(names, names[1:])]
        for nm in names:
            cells = name_cells(nm)
            assert cells == naive_name_cells(nm)
            assert name_cells(nm) is cells

    def test_mixed_instances_rejected(self, reference, swap_scale):
        inst, _ = reference
        other, _ = swap_scale
        with pytest.raises(MismatchedInstance):
            make_name([(Condition.top(inst), EMPTY_NAME),
                       (Condition(other, {("a", 0, 0): 1}), EMPTY_NAME)])
