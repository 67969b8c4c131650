import itertools

import pytest

from symext import (Condition, FiberExhausted, InvalidInstance, StageViolation,
                    check_name, forces, iter_conditions, min_onto_check,
                    ordinal, swap_kernel, swap_partner, wisc_kernel)
from symext.forcing import Eq
from symext.instances import least_value_name


class TestSwapPartner:
    def test_least_admissible(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 0, 0): 1})
        assert swap_partner(inst, q, {("b", 0)}, "a", 0) == 1

    def test_exhausted_when_other_rows_occupied(self, reference):
        inst, _ = reference
        q = Condition(inst, {("a", 0, 0): 1, ("a", 1, 0): 1})
        with pytest.raises(FiberExhausted):
            swap_partner(inst, q, frozenset(), "a", 0)

    def test_support_blocks_a_candidate(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 0, 0): 1})
        assert swap_partner(inst, q, {("a", 1)}, "a", 0) == 2

    def test_target_pair_must_avoid_support(self, swap_scale):
        inst, _ = swap_scale
        with pytest.raises(ValueError):
            swap_partner(inst, Condition.top(inst), {("a", 0)}, "a", 0)

    def test_unknown_site_rejected(self, swap_scale, staged_pair):
        for inst, site in ((swap_scale[0], "z"), (staged_pair[0], 5)):
            with pytest.raises(InvalidInstance):
                swap_partner(inst, Condition.top(inst), (), site, 0)


class TestSwapKernel:
    def test_reported_example(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 0, 0): 1, ("b", 0, 0): 1})
        report = swap_kernel(inst, q, {("b", 0)}, "a", 0)
        assert report.verdict
        assert report.chosen["partner"] == 1
        assert len(report.witness["merged"]) == 3
        assert all(report.checks.values())

    def test_top_condition_trivially_passes(self, swap_scale):
        inst, _ = swap_scale
        report = swap_kernel(inst, Condition.top(inst), {("b", 1)}, "a", 2)
        assert report.verdict
        assert report.witness["merged"] == []

    def test_deterministic_reports(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 1, 1): 0})
        r1 = swap_kernel(inst, q, {("a", 0)}, "b", 0)
        r2 = swap_kernel(inst, q, {("a", 0)}, "b", 0)
        assert r1.to_obj() == r2.to_obj()

    def test_explicit_name_list(self, swap_scale):
        inst, family = swap_scale
        report = swap_kernel(inst, Condition.top(inst), frozenset(), "a", 0,
                             names=[("site:b", family.sites["b"])])
        assert report.verdict and report.witness["names_fixed"] == {"site:b": True}

    def test_scope_statement_present(self, swap_scale):
        inst, _ = swap_scale
        report = swap_kernel(inst, Condition.top(inst), frozenset(), "a", 0)
        assert "no conclusion about infinite cardinalities" in report.to_obj()["scope"]

    def test_exhausted_propagates(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 1, 0): 1, ("a", 2, 0): 1})
        with pytest.raises(FiberExhausted):
            swap_kernel(inst, q, frozenset(), "a", 0)

    def test_mini_exhaustive(self, swap_scale):
        # every admissible tuple with tiny conditions passes
        inst, _ = swap_scale
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        for q in iter_conditions(inst, 1):
            for support in supports:
                for (z, a) in inst.pairs:
                    if (z, a) in support:
                        continue
                    try:
                        report = swap_kernel(inst, q, support, z, a)
                    except FiberExhausted:
                        continue
                    assert report.verdict


class TestWiscKernel:
    def test_stage_zero_site_name_fixed(self, staged_pair):
        staged, family = staged_pair
        q = Condition(staged, {(1, 0, 0): 1})
        report = wisc_kernel(staged, 0, family.sites[0], 1, q, frozenset())
        assert report.verdict
        assert report.checks["name_fixed"]
        assert report.checks["moved_avoids_name_cells"]
        assert report.chosen == {"first_fiber": 0, "second_fiber": 1}

    def test_check_name_fixed(self, staged_pair):
        staged, _ = staged_pair
        y = check_name(staged, ordinal(2))
        report = wisc_kernel(staged, 0, y, 1, Condition.top(staged), frozenset())
        assert report.verdict

    def test_stage_violation(self, staged_pair):
        staged, family = staged_pair
        with pytest.raises(StageViolation):
            wisc_kernel(staged, 0, family.rows[(1, 0)], 1,
                        Condition.top(staged), frozenset())

    def test_swap_stage_must_be_later(self, staged_pair):
        staged, family = staged_pair
        with pytest.raises(ValueError):
            wisc_kernel(staged, 0, family.rows[(0, 0)], 0,
                        Condition.top(staged), frozenset())

    def test_support_steers_fiber_choice(self, staged_pair):
        staged, family = staged_pair
        report = wisc_kernel(staged, 0, family.rows[(0, 1)], 1,
                             Condition.top(staged), frozenset({(1, 0)}))
        assert report.chosen == {"first_fiber": 1, "second_fiber": 2}
        assert report.checks["permutation_in_stabilizer"]

    def test_exhausted(self, staged_pair):
        staged, family = staged_pair
        q = Condition(staged, {(1, 1, 0): 1, (1, 2, 0): 1})
        support = frozenset({(1, 3)})
        with pytest.raises(FiberExhausted):
            wisc_kernel(staged, 0, family.rows[(0, 0)], 1, q, support)

    def test_mini_exhaustive(self, staged_pair):
        staged, family = staged_pair
        pool = [family.rows[(0, a)] for a in range(3)] + [family.sites[0]]
        supports = [frozenset()] + [frozenset({p}) for p in staged.pairs]
        for y in pool:
            for q in iter_conditions(staged, 1):
                for support in supports:
                    try:
                        report = wisc_kernel(staged, 0, y, 1, q, support)
                    except FiberExhausted:
                        continue
                    assert report.verdict
                    assert report.checks["moved_avoids_name_cells"]


class TestMinOnto:
    def test_explicit_witness_for_slot_one(self, reference):
        inst, _ = reference
        q = Condition(inst, {("a", 0, 0): 0, ("a", 0, 1): 1})
        phi = Eq(least_value_name(inst, "a", 0), check_name(inst, ordinal(1)))
        assert forces(q, phi, "semantic")

    def test_explicit_witness_for_slot_zero(self, reference):
        inst, _ = reference
        q = Condition(inst, {("a", 0, 0): 1})
        phi = Eq(least_value_name(inst, "a", 0), check_name(inst, ordinal(0)))
        assert forces(q, phi, "semantic")

    def test_saturated_conditions_reported(self, reference):
        inst, _ = reference
        report = min_onto_check(inst, "a", max_dom=2)
        assert report.verdict and not report.defects
        saturated = [tuple(map(tuple, items)) for items, _ in report.failures]
        # boundary recomputed independently: both fibers of the site touched
        expected = []
        for p in iter_conditions(inst, 2):
            if p.touched_fibers("a") == frozenset({0, 1}):
                expected.extend([p.items] * inst.slots)
        assert len(report.failures) == len(expected)

    def test_witness_counts_consistent(self, reference):
        inst, _ = reference
        report = min_onto_check(inst, "b", max_dom=1)
        assert report.checked == report.witnessed + len(report.failures)
        assert report.verdict
