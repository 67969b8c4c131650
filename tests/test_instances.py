import collections
import itertools
import random

import pytest

from symext import (GenericFilter, InvalidInstance, Poset,
                    build_instance, build_staged_instance, canonical_family,
                    chain_family, check_name, downset_embedding, generic_filters,
                    in_stage, interpret, is_hs, iter_conditions,
                    least_value_name, make_name, name_cells, name_stage, ordinal,
                    pair_name, random_poset, set_name)
from symext import instances

from _oracles import (hf_to_frozen, naive_interpret, region_name, site_name,
                      total_assignments)


class TestBuild:
    def test_reference_family_counts(self, reference):
        inst, family = reference
        assert len(family.rows) == 4
        assert len(family.sites) == 2
        assert len(family.regions) == 4
        assert all(is_hs(inst, nm) for _, nm in family.members())

    def test_region_of_one_site_is_the_site_name(self, reference):
        _, family = reference
        assert family.regions[frozenset({"a"})].entries == family.sites["a"].entries
        assert family.regions[frozenset({"a"})] is family.sites["a"]

    def test_family_builds_each_row_name_once(self, monkeypatch):
        # the site, region and graph names are built from the family's
        # rows, and are the names the one-shot builders give
        calls, build = collections.Counter(), instances.row_name

        def counted(inst, site, fiber):
            calls[site, fiber] += 1
            return build(inst, site, fiber)

        monkeypatch.setattr(instances, "row_name", counted)
        inst, family = build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 8)
        assert calls == collections.Counter(inst.pairs)
        monkeypatch.undo()
        for z in inst.sites:
            assert family.sites[z] is site_name(inst, z)
        for k in range(len(inst.sites) + 1):
            for combo in itertools.combinations(inst.sites, k):
                assert family.regions[frozenset(combo)] is region_name(inst, combo)
        assert family.graph is set_name(inst, [
            pair_name(inst, check_name(inst, ordinal(i)), site_name(inst, z))
            for i, z in enumerate(inst.sites)])

    def test_single_fiber_rejected(self):
        with pytest.raises(InvalidInstance):
            build_instance(Poset.antichain(["a", "b"]), 1, 2, 1)

    def test_cutoff_eating_all_transpositions_rejected(self):
        with pytest.raises(InvalidInstance):
            build_instance(Poset.antichain(["a"]), 2, 2, 1)

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInstance):
            Poset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])

    def test_row_name_shape(self, reference):
        inst, family = reference
        row = family.rows[("b", 1)]
        assert len(row.entries) == inst.slots
        for cond, sub in row.entries:
            assert len(cond) == 1
            ((site, fiber, slot), bit) = cond.items[0]
            assert (site, fiber, bit) == ("b", 1, 1)
            assert sub is check_name(inst, ordinal(slot))


class TestDownsetEmbedding:
    def test_chain(self):
        poset = Poset.chain(["a", "b"])
        assert downset_embedding(poset) == {
            "a": frozenset({"a"}), "b": frozenset({"a", "b"})}

    def test_antichain(self):
        poset = Poset.antichain(["a", "b"])
        down = downset_embedding(poset)
        assert down["a"] == frozenset({"a"}) and down["b"] == frozenset({"b"})
        assert not down["a"] <= down["b"] and not down["b"] <= down["a"]

    def test_diamond(self):
        poset = Poset.from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        down = downset_embedding(poset)
        for x, y in itertools.product(poset.elements, repeat=2):
            assert poset.leq(x, y) == (down[x] <= down[y])

    def test_random_posets_take_one_to_eight_leading_letters(self):
        rng = random.Random(7)
        sizes = set()
        for _ in range(200):
            elements = random_poset(rng).elements
            assert "".join(elements) == "abcdefgh"[:len(elements)]
            sizes.add(len(elements))
        assert sizes == set(range(1, 9))

    def test_random_posets_seeded(self):
        rng = random.Random(20240817)
        for _ in range(25):
            poset = random_poset(rng)
            down = downset_embedding(poset)
            for x, y in itertools.product(poset.elements, repeat=2):
                assert poset.leq(x, y) == (down[x] <= down[y])


class TestRegionMonotonicity:
    def test_entries_and_interpretations(self, reference):
        inst, family = reference
        subsets = list(family.regions)
        filters = list(generic_filters(inst))
        for q_set, t_set in itertools.product(subsets, repeat=2):
            if not q_set <= t_set:
                continue
            dq, dt = family.regions[q_set], family.regions[t_set]
            assert set(dq.entries) <= set(dt.entries)
            for filt in filters:
                small = interpret(dq, filt)
                large = interpret(dt, filt)
                assert all(e in large for e in small)

    def test_entry_subset_implies_interpretation_subset(self, tiny):
        # the general lemma, exhaustively at 3 cells: any two names with
        # nested entry sets have nested interpretations under every filter
        inst, family = tiny
        base = list(family.rows[("a", 0)].entries)
        bigger = make_name(base + list(family.rows[("a", 1)].entries))
        smaller = make_name(base)
        for filt in generic_filters(inst):
            small = interpret(smaller, filt)
            large = interpret(bigger, filt)
            assert all(e in large for e in small)


class TestLeastValueName:
    def test_matches_minimum_everywhere(self, tiny):
        inst, _ = tiny
        nm = least_value_name(inst, "a", 0)
        for assign in total_assignments(inst.cells):
            filt = GenericFilter.from_assignment(inst, assign)
            row = [assign[("a", 0, g)] for g in range(inst.slots)]
            expected = row.index(1) if 1 in row else inst.slots
            assert interpret(nm, filt) is ordinal(expected)

    def test_sentinel_on_empty_row(self, reference):
        inst, _ = reference
        nm = least_value_name(inst, "b", 1)
        zero = GenericFilter.from_assignment(inst, dict.fromkeys(inst.cells, 0))
        assert interpret(nm, zero) is ordinal(inst.slots)


class TestStaged:
    def test_shape(self, staged_pair):
        staged, family = staged_pair
        assert staged.sites == (0, 1)
        assert len(family.rows) == 3 + 4
        assert all(is_hs(staged, nm) for _, nm in family.members())

    def test_invalid_stage_lists(self):
        with pytest.raises(InvalidInstance):
            build_staged_instance((4, 3), 1)
        with pytest.raises(InvalidInstance):
            build_staged_instance((2, 4), 1)   # needs support_cutoff + 2 = 3

    def test_stage_zero_names_use_stage_zero_cells(self, staged_pair):
        staged, family = staged_pair
        for a in range(3):
            cells = name_cells(family.rows[(0, a)])
            assert all(cell[0] == 0 for cell in cells)
            assert name_stage(family.rows[(0, a)]) == 0
        assert name_stage(family.sites[1]) == 1
        # the stored stage is the max stage over the name's cells, on the
        # first call and on every later one
        for _ in range(2):
            for label, nm in family.members():
                expected = max((cell[0] for cell in name_cells(nm)), default=None)
                assert name_stage(nm) == expected, label

    def test_hs_stages_monotone(self, staged_pair):
        staged, family = staged_pair
        pool = [family.rows[(0, 0)], family.sites[0],
                check_name(staged, ordinal(2))]
        for nm in pool:
            assert is_hs(staged, nm) and in_stage(nm, 0) and in_stage(nm, 1)
        # stage-1 names are not in the stage-0 class
        assert is_hs(staged, family.rows[(1, 0)])
        assert not in_stage(family.rows[(1, 0)], 0)
        assert in_stage(family.rows[(1, 0)], 1)

    def test_interpretation_agrees_on_shared_cells(self, staged_pair):
        # two filters agreeing on stage-0 cells interpret stage-0 names alike
        staged, family = staged_pair
        rng = random.Random(7)
        nm = family.sites[0]
        for _ in range(20):
            base = {cell: rng.randint(0, 1) for cell in staged.cells}
            other = dict(base)
            for cell in staged.cells:
                if cell[0] == 1:
                    other[cell] = rng.randint(0, 1)
            f1 = GenericFilter.from_assignment(staged, base)
            f2 = GenericFilter.from_assignment(staged, other)
            assert interpret(nm, f1) is interpret(nm, f2)

    def test_in_stage_check_names(self, staged_pair):
        staged, _ = staged_pair
        assert in_stage(check_name(staged, ordinal(3)), 0)
        assert name_stage(check_name(staged, ordinal(3))) is None


class TestChainFamily:
    def test_singleton_chain_is_the_site_name(self):
        staged, family = build_staged_instance((3,), 1)
        chain = chain_family(staged)
        assert len(chain) == 1
        assert chain[0] is family.sites[0]

    def test_entries_strictly_decreasing(self, staged_pair):
        staged, _ = staged_pair
        chain = chain_family(staged)
        assert [len(c.entries) for c in chain] == [7, 4]
        assert set(chain[1].entries) < set(chain[0].entries)

    def test_interpretations_nested_sampled(self, staged_pair):
        staged, _ = staged_pair
        chain = chain_family(staged)
        rng = random.Random(11)
        for _ in range(40):
            bits = [rng.randint(0, 1) for _ in staged.cells]
            filt = GenericFilter(staged, bits)
            small = interpret(chain[1], filt)
            large = interpret(chain[0], filt)
            assert all(e in large for e in small)

    def test_interpretations_nested_matches_oracle(self, staged_pair):
        staged, _ = staged_pair
        chain = chain_family(staged)
        rng = random.Random(13)
        for _ in range(5):
            assign = {cell: rng.randint(0, 1) for cell in staged.cells}
            filt = GenericFilter.from_assignment(staged, assign)
            for nm in chain:
                assert hf_to_frozen(interpret(nm, filt)) == naive_interpret(nm, assign)
