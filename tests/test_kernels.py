import itertools
import json
from pathlib import Path

import pytest

from symext import (Condition, FiberExhausted, FiberPermutation, Instance,
                    InvalidInstance, StageViolation, act_condition, act_name,
                    canonical_family, check_name, check_support, compatible,
                    forces, iter_conditions, min_onto_check, ordinal,
                    swap_kernel, swap_step, wisc_kernel)
from symext import Poset, build_instance, kernels, symmetry
from symext.cli import _context, parse_instance_spec
from symext.core import _conflict
from symext.forcing import Eq
from symext.instances import least_value_name

SPECS = Path(__file__).parent.parent / "specs"

_SCOPE = ('"scope": "verifies the finite combinatorial step only (stabilizer '
          'membership, name fixation, condition compatibility); no conclusion '
          'about infinite cardinalities is asserted"}')

# to_obj() of reports built eagerly, before inputs and witness became lazy:
# a pass with a merge, a pass past the domain cutoff, a failing name check
# and a stage-local pass
PINNED_SWAP = [
    ('{"kernel": "swap", "inputs": {"condition": [["a", 0, 0, 1], ["b", 0, 0, 1]], '
     '"support": [["b", 0]], "site": "a", "fiber": 0}, "chosen": {"partner": 1}, '
     '"checks": {"permutation_in_stabilizer": true, "names_fixed": true, '
     '"conditions_compatible": true}, "witness": {"cycles": [[["a", 0], ["a", 1]]], '
     '"names_fixed": {"row:b:0": true, "site:a": true, "site:b": true}, '
     '"relabeled_condition": [["a", 1, 0, 1], ["b", 0, 0, 1]], '
     '"merged": [["a", 0, 0, 1], ["a", 1, 0, 1], ["b", 0, 0, 1]], '
     '"cutoff_exceeded": false}, "verdict": "pass", ' + _SCOPE),
    ('{"kernel": "swap", "inputs": {"condition": [["a", 0, 0, 1], ["a", 0, 1, 0]], '
     '"support": [], "site": "a", "fiber": 0}, "chosen": {"partner": 1}, '
     '"checks": {"permutation_in_stabilizer": true, "names_fixed": true, '
     '"conditions_compatible": true}, "witness": {"cycles": [[["a", 0], ["a", 1]]], '
     '"names_fixed": {"site:a": true, "site:b": true}, '
     '"relabeled_condition": [["a", 1, 0, 1], ["a", 1, 1, 0]], "merged": null, '
     '"cutoff_exceeded": true}, "verdict": "pass", ' + _SCOPE),
    ('{"kernel": "swap", "inputs": {"condition": [["a", 0, 1, 0]], "support": [], '
     '"site": "a", "fiber": 0}, "chosen": {"partner": 1}, '
     '"checks": {"permutation_in_stabilizer": true, "names_fixed": false, '
     '"conditions_compatible": true}, "witness": {"cycles": [[["a", 0], ["a", 1]]], '
     '"names_fixed": {"row:a:0": false}, "relabeled_condition": [["a", 1, 1, 0]], '
     '"merged": [["a", 0, 1, 0], ["a", 1, 1, 0]], "cutoff_exceeded": false}, '
     '"verdict": "fail", ' + _SCOPE),
]
PINNED_WISC = (
    '{"kernel": "wisc", "inputs": {"base_stage": 0, "swap_stage": 1, "name_rank": 3, '
    '"condition": [[0, 2, 1, 0], [1, 0, 0, 1]], "support": [[0, 1]]}, '
    '"chosen": {"first_fiber": 0, "second_fiber": 1}, "checks": {"name_fixed": true, '
    '"moved_avoids_name_cells": true, "locality_forms_agree": true, '
    '"permutation_in_stabilizer": true, "conditions_compatible": true}, '
    '"witness": {"cycles": [[[1, 0], [1, 1]]], '
    '"relabeled_condition": [[0, 2, 1, 0], [1, 1, 0, 1]], '
    '"merged": [[0, 2, 1, 0], [1, 0, 0, 1], [1, 1, 0, 1]], '
    '"cutoff_exceeded": false}, "verdict": "pass", ' + _SCOPE)


# the swap-3fiber benchmark workload's instance, run at max_dom 3
SWAP_3FIBER = {"poset": {"elements": ["a", "b"], "leq": []}, "n": 3, "v": 2, "c": 1}


def _spec_inputs(name, max_dom=None):
    """The instance, conditions and supports of a spec file (or of a spec
    given as a dict), as a CLI run of it enumerates them."""
    spec = parse_instance_spec(json.dumps(name) if isinstance(name, dict)
                               else (SPECS / name).read_text())
    ctx = _context(spec, {} if max_dom is None else {"max_dom": max_dom})
    return spec.inst, ctx["conditions"], ctx["supports"]


def _flat_steps(inst, conditions, supports, targets):
    """(condition index, support index, site, fiber, step) for each entry
    of each plan kernels.swap_plans yields, in that order."""
    return [(qi, *entry) for qi, plan in kernels.swap_plans(
        inst, conditions, supports, targets) for entry in plan]


def _assert_steps_are_the_one_input_steps(inst, conditions, supports, targets):
    """Every step of the flattened plans equals swap_step's on its input,
    field by field, and an input on which swap_step finds no step (its
    target pair in the support, or no spare fiber) has none; returns the
    plans' steps."""
    steps = {(qi, si, z, a): step for qi, si, z, a, step
             in _flat_steps(inst, conditions, supports, targets)}
    built = exhausted = 0
    for qi, q in enumerate(conditions):
        for si, support in enumerate(supports):
            for z, a in targets:
                if (z, a) in support:
                    assert (qi, si, z, a) not in steps
                    continue
                try:
                    one = swap_step(inst, q, support, z, a)
                except FiberExhausted:
                    assert (qi, si, z, a) not in steps
                    exhausted += 1
                    continue
                step = steps[qi, si, z, a]
                for field in kernels.SwapStep._fields:
                    assert getattr(step, field) == getattr(one, field), (qi, si, z, a, field)
                built += 1
    assert built == len(steps) and exhausted > 0
    return list(steps.values())


class TestSwapPartner:
    def test_least_admissible(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 0, 0): 1})
        assert swap_step(inst, q, {("b", 0)}, "a", 0).mate == 1

    def test_exhausted_when_other_rows_occupied(self, reference):
        inst, _ = reference
        q = Condition(inst, {("a", 0, 0): 1, ("a", 1, 0): 1})
        with pytest.raises(FiberExhausted):
            swap_step(inst, q, frozenset(), "a", 0)

    def test_support_blocks_a_candidate(self, swap_scale):
        inst, _ = swap_scale
        q = Condition(inst, {("a", 0, 0): 1})
        assert swap_step(inst, q, {("a", 1)}, "a", 0).mate == 2

    def test_target_pair_must_avoid_support(self, swap_scale):
        inst, _ = swap_scale
        with pytest.raises(ValueError):
            swap_step(inst, Condition.top(inst), {("a", 0)}, "a", 0)

    def test_unknown_site_rejected(self, swap_scale, staged_pair):
        for inst, site in ((swap_scale[0], "z"), (staged_pair[0], 5)):
            with pytest.raises(InvalidInstance):
                swap_step(inst, Condition.top(inst), (), site, 0)


    @pytest.mark.parametrize("staged", [False, True])
    def test_swap_step_is_the_one_input_case_of_swap_plans(self, swap_scale,
                                                           staged_pair, staged):
        # on the staged instance, fiber None asks for the least free fiber
        inst = staged_pair[0] if staged else swap_scale[0]
        targets = ([(z, None) for z in inst.sites] if staged else inst.pairs)
        conditions = list(iter_conditions(inst, 1))
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        _assert_steps_are_the_one_input_steps(inst, conditions, supports, targets)


class TestSharedSteps:
    """swap_plans decides each step once per choice and shares it, and
    each plan once per (touched fibers, compatibility flags), one object
    per plan value; at the spec files' real traffic its flattened plans
    still give swap_step's step on every input."""

    @pytest.mark.parametrize("name, max_dom, staged, plans", [
        ("staged.json", None, True, 6), ("reference.json", 3, False, 15)])
    def test_plans_flatten_to_the_steps(self, name, max_dom, staged, plans):
        inst, conditions, supports = _spec_inputs(name, max_dom)
        targets = ((1, None),) if staged else inst.pairs
        found = list(kernels.swap_plans(inst, conditions, supports, targets))
        assert [qi for qi, _ in found] == list(range(len(conditions)))
        assert ([(qi, *entry) for qi, plan in found for entry in plan]
                == _flat_steps(inst, conditions, supports, targets))
        # one plan object per distinct plan value, however many (touched
        # fibers, compatibility flags) keys give it
        assert (len({id(plan) for _, plan in found})
                == len({plan for _, plan in found}) == plans)

    @pytest.mark.parametrize("name, max_dom, staged, calls", [
        ("staged.json", None, True, 3497), ("reference.json", 3, False, 802),
        (SWAP_3FIBER, 3, False, 10470)])
    def test_compatibility_runs_once_per_condition_and_transposition(
            self, monkeypatch, name, max_dom, staged, calls):
        # the flag reads the condition, so sharing a plan must not share
        # the calls that decide its flags
        seen, compatible_ = [], kernels._compatible

        def counted(q, pi):
            seen.append((q, pi))
            return compatible_(q, pi)

        monkeypatch.setattr(kernels, "_compatible", counted)
        inst, conditions, supports = _spec_inputs(name, max_dom)
        targets = ((1, None),) if staged else inst.pairs
        for _ in kernels.swap_plans(inst, conditions, supports, targets):
            pass
        assert len(seen) == len(set(seen)) == calls

    def test_staged_wisc_inputs(self):
        inst, conditions, supports = _spec_inputs("staged.json")
        assert (len(conditions), len(supports)) == (1251, 8)
        steps = _assert_steps_are_the_one_input_steps(inst, conditions, supports,
                                                      ((1, None),))
        assert len(steps) == 9752
        assert len({id(step) for step in steps}) < 100

    def test_compatibility_is_decided_per_condition(self, monkeypatch):
        # the mate is untouched by the condition, so with the sound action
        # every step is compatible; a doctored _conflict makes the flag
        # differ between conditions on one transposition
        monkeypatch.setattr(kernels, "_conflict", _conflict_at_stage_1_fiber_0)
        inst, conditions, supports = _spec_inputs("staged.json")
        steps = _assert_steps_are_the_one_input_steps(inst, conditions, supports,
                                                      ((1, None),))
        assert {step.compatible for step in steps} == {False, True}
        # an incompatible step is the sound action's step on its input
        # with only the flag cleared
        doctored = _flat_steps(inst, conditions, supports, ((1, None),))
        monkeypatch.undo()
        sound = _flat_steps(inst, conditions, supports, ((1, None),))
        assert [key for *key, _ in doctored] == [key for *key, _ in sound]
        assert all(step.compatible for *_, step in sound)
        flipped = [(step, one) for (*_, step), (*_, one) in zip(doctored, sound)
                   if not step.compatible]
        assert flipped and all(step == one._replace(compatible=False)
                               for step, one in flipped)

    def test_reference_swap_inputs(self):
        inst, conditions, supports = _spec_inputs("reference.json", max_dom=3)
        assert (len(conditions), len(supports)) == (577, 5)
        _assert_steps_are_the_one_input_steps(inst, conditions, supports, inst.pairs)


class TestSwapKernel:
    def test_support_checked_once_per_run(self, swap_scale, monkeypatch):
        inst, _ = swap_scale
        calls = []

        def counting(inst, support):
            calls.append(support)
            return check_support(inst, support)

        monkeypatch.setattr(kernels, "check_support", counting)
        runs = 0
        for q in iter_conditions(inst, 1):
            for support in ((), [("b", 0)], {("a", 2)}):
                runs += 1
                try:
                    swap_kernel(inst, q, support, "a", 0)
                except FiberExhausted:
                    pass
        assert len(calls) == runs
        # swap_step still validates the support it is given
        with pytest.raises(InvalidInstance):
            swap_step(inst, Condition.top(inst), {("z", 0)}, "a", 0)
        assert len(calls) == runs + 1

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

    def test_agreement_decides_like_the_merge(self, swap_scale):
        # swap_step reads compatibility off agreement on the common
        # domain; the merge of core.compatible must give the same answer
        inst, _ = swap_scale
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        compared = 0
        for q in iter_conditions(inst, 1):
            for support in supports:
                for (z, a) in inst.pairs:
                    if (z, a) in support:
                        continue
                    try:
                        step = swap_step(inst, q, support, z, a)
                    except FiberExhausted:
                        continue
                    pi = FiberPermutation.transposition(inst, z, step.fiber, step.mate)
                    _assert_agreement_is_the_merge_verdict(
                        step.compatible, q, act_condition(pi, q))
                    compared += 1
        assert compared
        # swap_step's mate is untouched by q, so the space above never
        # conflicts; a swap of two touched rows does
        q = Condition(inst, {("a", 0, 0): 1, ("a", 1, 0): 0})
        moved = act_condition(FiberPermutation.transposition(inst, "a", 0, 1), q)
        agree = kernels._conflict(q, moved) is None
        assert not agree
        _assert_agreement_is_the_merge_verdict(agree, q, moved)

    def test_given_step_reports_like_the_one_shot_kernel(self, swap_scale):
        inst, _ = swap_scale
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        compared = 0
        for q in iter_conditions(inst, 1):
            for support in supports:
                for (z, a) in inst.pairs:
                    if (z, a) in support:
                        continue
                    try:
                        step = swap_step(inst, q, support, z, a)
                    except FiberExhausted:
                        continue
                    assert (swap_kernel(inst, q, support, z, a, step=step).to_obj()
                            == swap_kernel(inst, q, support, z, a).to_obj())
                    compared += 1
        assert compared

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

    def test_arguments_checked_before_the_fibers(self, staged_pair):
        # no fiber is left at stage 1, so a kernel choosing its fibers
        # first would raise FiberExhausted for both
        staged, family = staged_pair
        q = Condition(staged, {(1, 1, 0): 1, (1, 2, 0): 1})
        with pytest.raises(StageViolation):
            wisc_kernel(staged, 0, family.rows[(1, 0)], 1, q, {(1, 3)})
        with pytest.raises(ValueError):
            wisc_kernel(staged, 1, family.rows[(0, 0)], 1, q, {(1, 3)})

    def test_base_stage_must_be_a_stage(self, staged_pair):
        # a name without cells lives at every stage, so only the stage
        # check can reject it; it runs before the fibers are chosen
        staged, _ = staged_pair
        y = check_name(staged, ordinal(1))
        for base in (-1, 7):
            with pytest.raises(ValueError, match="base stage"):
                wisc_kernel(staged, base, y, 0, Condition.top(staged), ())
        q = Condition(staged, {(1, 1, 0): 1, (1, 2, 0): 1})
        with pytest.raises(ValueError, match="base stage"):
            wisc_kernel(staged, -1, y, 1, q, {(1, 3)})

    def test_swap_half_raises_like_the_kernel(self, staged_pair):
        staged, family = staged_pair
        q = Condition(staged, {(1, 1, 0): 1, (1, 2, 0): 1})
        with pytest.raises(FiberExhausted):
            swap_step(staged, q, {(1, 3)}, 1)
        with pytest.raises(ValueError):
            wisc_kernel(staged, 0, family.rows[(0, 0)], 2, Condition.top(staged), ())
        with pytest.raises(InvalidInstance):
            swap_step(staged, Condition.top(staged), {(1, 9)}, 1)

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

    def test_given_step_reports_like_the_one_shot_kernel(self, staged_pair):
        staged, family = staged_pair
        pool = [family.rows[(0, a)] for a in range(3)] + [family.sites[0]]
        supports = [frozenset()] + [frozenset({p}) for p in staged.pairs]
        compared = 0
        for q in iter_conditions(staged, 1):
            for support in supports:
                try:
                    step = swap_step(staged, q, support, 1)
                except FiberExhausted:
                    continue
                for y in pool:
                    assert (wisc_kernel(staged, 0, y, 1, q, support, step=step).to_obj()
                            == wisc_kernel(staged, 0, y, 1, q, support).to_obj())
                    compared += 1
        assert compared


def _assert_agreement_is_the_merge_verdict(agree, p, r):
    assert agree == compatible(p, r).ok


def _drop_a_moved_cell(pi, p):
    """act_condition with a fault: the image of p's first moved cell is
    missing."""
    image = dict(act_condition(pi, p).items)
    for (site, fiber, slot), _ in p.items:
        if (site, fiber) in pi._map:
            del image[(site, pi((site, fiber))[1], slot)]
            break
    return Condition(p.inst, image)


def _conflict_at_stage_1_fiber_0(p, q):
    """_conflict with a fault: a condition p that sets a cell of stage 1,
    fiber 0 conflicts with every q."""
    for cell, _ in p.items:
        if cell[:2] == (1, 0):
            return cell
    return _conflict(p, q)


class TestMutatedAction:
    """A fault in the lifted action must fail a check.  Each case builds
    its instance unverified and fresh, so no memo of the action or the
    kernels' name checks was filled before the fault is in place."""

    @staticmethod
    def instances():
        return (Instance.flat(Poset.antichain(["a", "b"]), 3, 2, 1),
                Instance.staged((3, 4), 1))

    @staticmethod
    def checks(flat, staged):
        swap = swap_kernel(flat, Condition.top(flat), (), "a", 0)
        # criterion 9 at the swap stage: its site name is fixed by every
        # transposition there
        site = canonical_family(staged).sites[1]
        fixed = [act_name(FiberPermutation.transposition(staged, 1, a, b), site) is site
                 for a, b in ((0, 1), (1, 3))]
        return swap.verdict, swap.checks["names_fixed"], fixed

    def test_sound_action_passes(self):
        assert self.checks(*self.instances()) == (True, True, [True, True])

    def test_dropped_moved_cell_fails(self, monkeypatch):
        monkeypatch.setattr(symmetry, "act_condition", _drop_a_moved_cell)
        flat, staged = self.instances()
        assert not flat.store.name_checks and not staged.store.act
        assert self.checks(flat, staged) == (False, False, [False, False])


class TestReportObjects:
    def test_swap_to_obj_unchanged(self, swap_scale):
        inst, family = swap_scale
        capped, _ = build_instance(Poset.antichain(["a", "b"]), 3, 2, 1, 2)
        reports = [
            swap_kernel(inst, Condition(inst, {("a", 0, 0): 1, ("b", 0, 0): 1}),
                        {("b", 0)}, "a", 0),
            swap_kernel(capped, Condition(capped, {("a", 0, 0): 1, ("a", 0, 1): 0}),
                        (), "a", 0),
            swap_kernel(inst, Condition(inst, {("a", 0, 1): 0}), (), "a", 0,
                        names=[("row:a:0", family.rows[("a", 0)])]),
        ]
        assert [r.verdict for r in reports] == [True, True, False]
        assert [json.dumps(r.to_obj()) for r in reports] == PINNED_SWAP

    def test_wisc_to_obj_unchanged(self, staged_pair):
        staged, family = staged_pair
        q = Condition(staged, {(1, 0, 0): 1, (0, 2, 1): 0})
        report = wisc_kernel(staged, 0, family.rows[(0, 1)], 1, q, {(0, 1)})
        assert json.dumps(report.to_obj()) == PINNED_WISC

    def test_checks_computed_when_called(self, swap_scale, staged_pair, monkeypatch):
        # the report's dicts are built on first read, but from values the
        # call computed: with the checks broken afterwards, reading them
        # still gives the pinned reports
        inst, family = swap_scale
        staged, staged_family = staged_pair
        swap = swap_kernel(inst, Condition(inst, {("a", 0, 1): 0}), (), "a", 0,
                           names=[("row:a:0", family.rows[("a", 0)])])
        wisc = wisc_kernel(staged, 0, staged_family.rows[(0, 1)], 1,
                           Condition(staged, {(1, 0, 0): 1, (0, 2, 1): 0}), {(0, 1)})

        def broken(*args):
            raise AssertionError("a check ran after the kernel returned")

        for module, attr in ((kernels, "act_name"), (symmetry, "act_name"),
                             (kernels, "_name_checks"), (kernels, "_conflict")):
            monkeypatch.setattr(module, attr, broken)
        assert swap.checks == {"permutation_in_stabilizer": True, "names_fixed": False,
                               "conditions_compatible": True}
        assert swap.chosen == {"partner": 1}
        assert wisc.checks == dict.fromkeys(
            ("name_fixed", "moved_avoids_name_cells", "locality_forms_agree",
             "permutation_in_stabilizer", "conditions_compatible"), True)
        assert wisc.chosen == {"first_fiber": 0, "second_fiber": 1}
        assert json.dumps(swap.to_obj()) == PINNED_SWAP[2]
        assert json.dumps(wisc.to_obj()) == PINNED_WISC

    def test_inputs_and_witness_built_on_first_read(self, swap_scale):
        inst, _ = swap_scale
        report = swap_kernel(inst, Condition(inst, {("a", 0, 0): 1}), (), "a", 0)
        assert "inputs" not in vars(report) and "witness" not in vars(report)
        assert report.witness is report.witness
        assert report.inputs is report.to_obj()["inputs"]


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
