"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance and bound is pinned here; nothing is deferred to calibration.
"""

import itertools
import random
import time

import pytest

from symext import (Condition, FiberExhausted, GenericFilter, Poset,
                    act_condition, act_formula, act_name, assemble_sequence,
                    build_instance, build_staged_instance, chain_family,
                    check_name, conjugation_check, downset_embedding,
                    fix_generators, forces, generator_closure, generic_filters,
                    hf, infer_min_support, interpret, is_hs, iter_conditions,
                    make_name, min_onto_check, ordinal, pair_name, random_poset,
                    swap_kernel, wisc_kernel)
from symext.cli import parse_instance_spec
from symext.forcing import Eq, Mem
from symext.names import EMPTY_NAME

REF_SPEC = ('{"poset": {"elements": ["a", "b"], "leq": []}, '
            '"n": 2, "v": 2, "c": 1, "d": 8}')


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ref_spec():
    return parse_instance_spec(REF_SPEC)


def test_criterion_1_forcing_oracle_equivalence(ref_spec):
    """Recursive and semantic forcing agree on every condition with domain
    size at most 2 against a fixed pool of >= 20 formulas, within 60 s."""
    inst = ref_spec.inst
    pool = ref_spec.pool
    conditions = list(iter_conditions(inst, 2))
    assert len(pool) >= 20 and len(conditions) == 129
    start = time.monotonic()
    mismatches = [
        (label, p.items)
        for p in conditions
        for label, phi in pool
        if forces(p, phi, "recursive") != forces(p, phi, "semantic")]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    report(1, ok, f"{len(conditions)}x{len(pool)} checks, "
                  f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_2_symmetry_lemma_suite(ref_spec):
    """Forcing is equivariant under every permutation in the generator
    closure of word length <= 3, in both modes, over the same ranges."""
    inst = ref_spec.inst
    pool = ref_spec.pool
    conditions = list(iter_conditions(inst, 2))
    perms = generator_closure(fix_generators(inst, ()), 3)
    assert len(perms) == 4
    bad = 0
    total = 0
    for pi in perms:
        for p in conditions:
            moved_p = act_condition(pi, p)
            for label, phi in pool:
                moved_phi = act_formula(pi, phi)
                total += 1
                for mode in ("semantic", "recursive"):
                    if forces(p, phi, mode) != forces(moved_p, moved_phi, mode):
                        bad += 1
                        break
    report(2, bad == 0, f"{total} permutation/condition/formula units, {bad} unequal")


def test_criterion_3_canonical_name_algebra(ref_spec):
    """Generators relabel row names by the moved pair, fix site names, and
    fix every check name of rank <= 2."""
    inst = ref_spec.inst
    family = ref_spec.family
    gens = fix_generators(inst, ())
    rank01 = [hf(), hf([hf()])]
    rank2 = sorted({hf(combo) for k in range(3)
                    for combo in itertools.combinations(rank01, k)},
                   key=lambda v: v.key)
    checked = 0
    for pi in gens:
        for (z, a), row in family.rows.items():
            assert act_name(pi, row) is family.rows[pi((z, a))]
            checked += 1
        for z, site in family.sites.items():
            assert act_name(pi, site) is site
            checked += 1
        for value in rank2:
            nm = check_name(inst, value)
            assert nm.rank <= 2
            assert act_name(pi, nm) is nm
            checked += 1
    report(3, True, f"{checked} algebra identities hold exactly")


def test_criterion_4_swap_kernel_exhaustive():
    """On two sites with 3 fibers and 2 slots: every admissible
    (condition, support, pair) tuple with |dom q| <= 4 and |E| <= 1
    passes the swap kernel, within 5 minutes."""
    inst, _ = build_instance(Poset.antichain(["a", "b"]), 3, 2, 1)
    start = time.monotonic()
    supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
    runs = passes = boundary = 0
    for q in iter_conditions(inst, 4):
        occupied = {z: q.touched_fibers(z) for z in inst.sites}
        for support in supports:
            for (z, a) in inst.pairs:
                if (z, a) in support:
                    continue
                admissible = any(b != a and (z, b) not in support
                                 and b not in occupied[z]
                                 for b in range(inst.fibers))
                if not admissible:
                    boundary += 1
                    with pytest.raises(FiberExhausted):
                        swap_kernel(inst, q, support, z, a)
                    continue
                runs += 1
                if swap_kernel(inst, q, support, z, a).verdict:
                    passes += 1
    elapsed = time.monotonic() - start
    ok = passes == runs and runs > 200000 and elapsed < 300.0
    report(4, ok, f"{passes}/{runs} admissible tuples pass "
                  f"({boundary} at the fiber boundary), {elapsed:.1f}s")


def test_criterion_5_support_facts(ref_spec):
    """Least supports: each row name is supported by exactly its own pair,
    each site name by the empty set; the 3-fiber pair-name counterexample
    has no support within cutoff 1."""
    inst = ref_spec.inst
    family = ref_spec.family
    for (z, a), row in family.rows.items():
        assert infer_min_support(inst, row) == frozenset({(z, a)})
    for z, site in family.sites.items():
        assert infer_min_support(inst, site) == frozenset()
    n3, fam3 = build_instance(Poset.antichain(["a"]), 3, 2, 1)
    counterexample = pair_name(n3, fam3.rows[("a", 1)], fam3.rows[("a", 2)])
    assert infer_min_support(n3, counterexample) is None
    report(5, True, "row supports {pair}, site supports {}, "
                    "pair-name counterexample has none")


def test_criterion_6_filter_laws(ref_spec):
    """Conjugation carries stabilizers to stabilizers for every word of
    length <= 3 and every support within cutoff; the bundled-sequence
    verdict coincides with the hereditary-symmetry search on every
    collection of <= 3 canonical names."""
    inst = ref_spec.inst
    family = ref_spec.family
    perms = generator_closure(fix_generators(inst, ()), 3)
    supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
    conj_units = 0
    for pi, support in itertools.product(perms, supports):
        assert conjugation_check(inst, pi, support).ok
        conj_units += 1
    pool = ([family.rows[k] for k in sorted(family.rows)]
            + [family.sites[z] for z in sorted(family.sites)]
            + [check_name(inst, ordinal(k)) for k in range(3)])
    dc_units = 0
    for k in (0, 1, 2, 3):
        for combo in itertools.combinations(pool, k):
            rep = assemble_sequence(inst, combo)
            assert rep.hs == is_hs(inst, rep.name)
            if rep.certified:
                assert rep.hs
            dc_units += 1
    report(6, True, f"{conj_units} conjugation checks, "
                    f"{dc_units} bundle verdicts agree with the search")


def test_criterion_7_embedding_law():
    """For 100 seeded random posets with <= 8 elements, order and down-set
    inclusion coincide on every pair."""
    rng = random.Random(1009)
    pairs_checked = 0
    for _ in range(100):
        poset = random_poset(rng)
        down = downset_embedding(poset)
        for x, y in itertools.product(poset.elements, repeat=2):
            assert poset.leq(x, y) == (down[x] <= down[y])
            pairs_checked += 1
    report(7, True, f"100 posets, {pairs_checked} pairs compared")


def test_criterion_8_region_monotonicity_and_chains(ref_spec):
    """Reference scale: region names are monotone under every generic
    filter, exhaustively.  Staged 3-stage chain: entry sets shrink
    strictly; interpretations are nested for every filter, which follows
    from entry inclusion plus the interpretation-monotonicity lemma
    (itself checked exhaustively at reference scale) and is additionally
    spot-checked on 512 seeded filters."""
    inst = ref_spec.inst
    family = ref_spec.family
    filters = list(generic_filters(inst))
    units = 0
    for q_set, t_set in itertools.product(family.regions, repeat=2):
        if not q_set <= t_set:
            continue
        dq, dt = family.regions[q_set], family.regions[t_set]
        assert set(dq.entries) <= set(dt.entries)
        for filt in filters:
            small, large = interpret(dq, filt), interpret(dt, filt)
            assert all(e in large for e in small)
            units += 1
    # the lemma: entry inclusion forces interpretation inclusion, for every
    # pair of canonical names with nested entries, over all 256 filters
    members = [nm for _, nm in family.members()]
    lemma_units = 0
    for x, y in itertools.product(members, repeat=2):
        if not set(x.entries) <= set(y.entries):
            continue
        for filt in filters:
            small, large = interpret(x, filt), interpret(y, filt)
            assert all(e in large for e in small)
            lemma_units += 1
    staged, _ = build_staged_instance((3, 4, 5), 1)
    chain = chain_family(staged)
    sizes = [len(c.entries) for c in chain]
    assert sizes == [12, 9, 5]
    for later, earlier in zip(chain[1:], chain):
        assert set(later.entries) < set(earlier.entries)
    rng = random.Random(2027)
    for _ in range(512):
        filt = GenericFilter(staged, [rng.randint(0, 1) for _ in staged.cells])
        for later, earlier in zip(chain[1:], chain):
            small, large = interpret(later, filt), interpret(earlier, filt)
            assert all(e in large for e in small)
    report(8, True, f"{units} exhaustive region inclusions, "
                    f"{lemma_units} lemma instances, "
                    f"chain {sizes} strict at entry level, 512 sampled filters nested")


def _stage_zero_rank2_pool(staged):
    """A bounded exhaustive pool of stage-0 names of rank <= 2: conditions
    with at most one stage-0 cell, entry width <= 2, subnames drawn from
    the rank <= 1 layer of the same shape."""
    conds = [Condition.top(staged)]
    conds += [Condition(staged, {(0, a, g): b})
              for a in range(3) for g in range(3) for b in (0, 1)]
    rank1 = [EMPTY_NAME] + [make_name([(c, EMPTY_NAME)]) for c in conds]
    entries = [(c, sub) for c in conds for sub in rank1]
    pool = {EMPTY_NAME}
    pool.update(make_name([e]) for e in entries)
    pool.update(make_name([e1, e2])
                for e1, e2 in itertools.combinations(entries, 2))
    return sorted(pool, key=lambda nm: nm.key)


def test_criterion_9_stage_locality():
    """Stages (3, 4): every stage-0 name of rank <= 2 from the bounded
    exhaustive pool is fixed by every stage-1 fiber transposition, and the
    wisc kernel passes on the exhaustive admissible space at this scale."""
    staged, family = build_staged_instance((3, 4), 1)
    pool = _stage_zero_rank2_pool(staged)
    transpositions = [g for g in fix_generators(staged, ()) if g.moved[0][0][0] == 1]
    assert len(transpositions) == 6 and len(pool) > 50000
    for pi in transpositions:
        for nm in pool:
            assert act_name(pi, nm) is nm
    kernel_pool = ([(f"row:0:{a}", family.rows[(0, a)]) for a in range(3)]
                   + [("site:0", family.sites[0]),
                      ("ord:2", check_name(staged, ordinal(2)))])
    supports = [frozenset()] + [frozenset({p}) for p in staged.pairs]
    runs = 0
    for _, y in kernel_pool:
        for q in iter_conditions(staged, 2):
            for support in supports:
                try:
                    rep = wisc_kernel(staged, 0, y, 1, q, support)
                except FiberExhausted:
                    continue
                assert rep.verdict
                assert rep.checks["name_fixed"] and rep.checks["moved_avoids_name_cells"]
                runs += 1
    report(9, True, f"{len(pool)} pool names x {len(transpositions)} transpositions "
                    f"fixed; {runs} wisc kernel runs pass")


def test_criterion_10_min_onto_density(ref_spec):
    """Every (condition, slot) pair with a spare fiber yields an explicit
    forcing witness; failures happen exactly on the saturation boundary,
    matched against an independent enumeration, for both sites."""
    inst = ref_spec.inst
    total_witnessed = 0
    for site in inst.sites:
        rep = min_onto_check(inst, site)
        assert rep.verdict and not rep.defects
        reported = {(tuple(tuple(c) for c in items), g) for items, g in rep.failures}
        expected = set()
        for p in iter_conditions(inst, inst.domain_cutoff - inst.slots):
            if len(p.touched_fibers(site)) == inst.fibers:
                key = tuple([*cell, bit] for cell, bit in p.items)
                for g in range(inst.slots):
                    expected.add((tuple(tuple(c) for c in key), g))
        assert reported == expected
        total_witnessed += rep.witnessed
    report(10, True, f"{total_witnessed} witnesses verified semantically, "
                     "failure set equals the saturation boundary on both sites")
