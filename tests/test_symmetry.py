import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symext import (Condition, FiberPermutation, InvalidInstance, act_condition,
                    act_name, act_support, assemble_sequence, build_staged_instance,
                    check_name,
                    compatible,
                    conjugate, conjugation_check, fix_generators,
                    generator_closure, in_fix,
                    infer_min_support, is_hs, is_symmetric_under, iter_conditions,
                    make_name, ordinal, pair_name, set_name)
from symext.names import EMPTY_NAME

from _oracles import (group_closure, naive_act_structure, naive_min_support,
                      name_structure, perm_cell)


class TestPermutations:
    def test_transposition_roundtrip(self, reference):
        inst, _ = reference
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        assert pi(("a", 0)) == ("a", 1) and pi(("a", 1)) == ("a", 0)
        assert pi(("b", 0)) == ("b", 0)
        assert (pi * pi).is_identity
        assert pi.inverse() == pi

    def test_site_preservation_enforced(self, reference):
        inst, _ = reference
        with pytest.raises(InvalidInstance):
            FiberPermutation(inst, {("a", 0): ("b", 0), ("b", 0): ("a", 0)})

    def test_bijectivity_enforced(self, reference):
        inst, _ = reference
        with pytest.raises(InvalidInstance):
            FiberPermutation(inst, {("a", 0): ("a", 1)})

    def test_staged_moved_bound(self, staged_pair):
        staged, _ = staged_pair
        # a 3-cycle at stage 0 moves 3 fibers; the bound there is 2
        with pytest.raises(InvalidInstance):
            FiberPermutation.from_cycles(staged, [[(0, 0), (0, 1), (0, 2)]])
        # the same shape is fine at stage 1 (bound 3)
        FiberPermutation.from_cycles(staged, [[(1, 0), (1, 1), (1, 2)]])

    def test_cycles_serialization(self, swap_scale):
        inst, _ = swap_scale
        pi = FiberPermutation.from_cycles(inst, [[("a", 0), ("a", 1), ("a", 2)]])
        assert pi.cycles() == [[("a", 0), ("a", 1), ("a", 2)]]
        assert FiberPermutation.from_cycles(inst, pi.cycles()) == pi

    def test_transposition_interned(self, reference, staged_pair):
        for inst, site in ((reference[0], "b"), (staged_pair[0], 1)):
            pi = FiberPermutation.transposition(inst, site, 0, 1)
            again = FiberPermutation.transposition(inst, site, 0, 1)
            assert again == pi and hash(again) == hash(pi)
            assert again == FiberPermutation(inst, {(site, 0): (site, 1),
                                                    (site, 1): (site, 0)})

    @pytest.mark.parametrize("site, a, b", [("a", 0, 2), ("a", -1, 0), ("z", 0, 1)])
    def test_invalid_transposition_raises_every_time(self, reference, site, a, b):
        inst, _ = reference
        for _ in range(2):
            with pytest.raises(InvalidInstance):
                FiberPermutation.transposition(inst, site, a, b)


def _assert_same_condition(got, expected):
    assert got.items == expected.items
    assert got == expected and hash(got) == hash(expected)


class TestTrustedConstruction:
    """act_condition and the merge witness of compatible skip validation;
    each must equal the validating constructor on the same items."""

    @pytest.mark.parametrize("fixture", ["reference", "staged_pair"])
    def test_equal_to_validated(self, fixture, request):
        inst, _ = request.getfixturevalue(fixture)
        gens = fix_generators(inst, ())
        assert gens
        for q in iter_conditions(inst, 3):
            for pi in gens:
                moved = act_condition(pi, q)
                _assert_same_condition(moved, Condition(inst, moved.items))
                merged = compatible(q, moved).witness
                if merged is not None:
                    _assert_same_condition(merged, Condition(inst, merged.items))

    def test_public_constructor_still_validates(self, staged_pair):
        staged, _ = staged_pair
        with pytest.raises(InvalidInstance):
            Condition(staged, {(0, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1})
        with pytest.raises(InvalidInstance):
            Condition(staged, {(0, 3, 0): 1})


class TestActions:
    def test_act_condition_swap(self, reference):
        inst, _ = reference
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        p = Condition(inst, {("a", 0, 0): 1})
        assert act_condition(pi, p) == Condition(inst, {("a", 1, 0): 1})

    def test_act_condition_identity(self, reference):
        inst, _ = reference
        p = Condition(inst, {("a", 0, 0): 1, ("b", 1, 1): 0})
        assert act_condition(FiberPermutation.identity(inst), p) == p

    def test_act_condition_composition(self, swap_scale):
        # both routes recomputed against the plain mapping oracle
        inst, _ = swap_scale
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        sigma = FiberPermutation.from_cycles(inst, [[("a", 0), ("a", 1), ("a", 2)]])
        p = Condition(inst, {("a", 0, 0): 1, ("a", 2, 1): 0, ("b", 1, 0): 1})
        composed = act_condition(pi * sigma, p)
        stepwise = act_condition(pi, act_condition(sigma, p))
        assert composed == stepwise
        mapping = dict((pi * sigma).moved)
        expected = Condition(inst, {perm_cell(mapping, c): b for c, b in p.items})
        assert composed == expected

    def test_act_name_row_relabels(self, reference):
        inst, family = reference
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        assert act_name(pi, family.rows[("a", 0)]) is family.rows[("a", 1)]

    def test_act_name_site_fixed(self, reference):
        inst, family = reference
        for pi in generator_closure(fix_generators(inst, ()), 3):
            assert act_name(pi, family.sites["a"]) is family.sites["a"]
            assert act_name(pi, family.sites["b"]) is family.sites["b"]

    def test_act_name_check_fixed(self, reference):
        inst, _ = reference
        nm = check_name(inst, ordinal(2))
        for pi in generator_closure(fix_generators(inst, ()), 3):
            assert act_name(pi, nm) is nm

    def test_act_name_matches_structure_oracle(self, swap_scale):
        inst, family = swap_scale
        pi = FiberPermutation.from_cycles(inst, [[("a", 0), ("a", 1), ("a", 2)]])
        for nm in (family.rows[("a", 0)], family.sites["a"],
                   family.regions[frozenset({"a", "b"})], family.graph):
            assert name_structure(act_name(pi, nm)) == naive_act_structure(dict(pi.moved), nm)

    def test_homomorphism_on_names(self, swap_scale):
        inst, family = swap_scale
        gens = fix_generators(inst, ())
        pool = [family.rows[("a", 0)], family.sites["b"], family.graph]
        for pi, sigma in itertools.product(gens, repeat=2):
            for nm in pool:
                assert act_name(pi * sigma, nm) is act_name(pi, act_name(sigma, nm))


class TestFixGenerators:
    def test_single_site_no_support(self, tiny):
        inst, _ = tiny
        gens = fix_generators(inst, ())
        assert [sorted(g.moved) for g in gens] == [
            sorted([(("a", 0), ("a", 1)), (("a", 1), ("a", 0))]),
            sorted([(("a", 0), ("a", 2)), (("a", 2), ("a", 0))]),
            sorted([(("a", 1), ("a", 2)), (("a", 2), ("a", 1))]),
        ]

    def test_blocked_site_yields_nothing_there(self, reference):
        inst, _ = reference
        gens = fix_generators(inst, {("a", 0)})
        assert len(gens) == 1
        assert gens[0] == FiberPermutation.transposition(inst, "b", 0, 1)

    def test_both_pairs_must_be_free(self, swap_scale):
        inst, _ = swap_scale
        gens = fix_generators(inst, {("a", 1)})
        moved_sites_a = [g for g in gens if g.moved[0][0][0] == "a"]
        assert len(moved_sites_a) == 1  # only (a,0)<->(a,2) remains
        assert all(in_fix(g, {("a", 1)}) for g in gens)

    def test_generators_generate_the_stabilizer(self, reference):
        # brute-force: the closure equals every site-preserving permutation
        # fixing the support pointwise
        inst, _ = reference
        support = frozenset({("a", 0)})
        closure = group_closure(fix_generators(inst, support),
                                FiberPermutation.identity(inst))
        assert len(closure) == 2  # identity and the b-swap
        assert all(in_fix(g, support) for g in closure)

    def test_kept_per_support_and_handed_out_as_a_new_list(self, swap_scale):
        inst, _ = swap_scale
        first = fix_generators(inst, [("a", 1)])
        expected = list(first)
        first.clear()
        first.append(FiberPermutation.identity(inst))
        again = fix_generators(inst, {("a", 1)})
        assert again == expected and again is not first
        assert fix_generators(inst, frozenset({("a", 1)})) is not again

    def test_generator_closure_reaches_the_generated_group(self, reference):
        inst, _ = reference
        gens = fix_generators(inst, ())
        group = group_closure(gens, FiberPermutation.identity(inst))
        assert len(group) == 4  # the two site swaps and their product
        assert len(generator_closure(gens, 1)) == 3
        assert group == set(generator_closure(gens, 2)) == set(generator_closure(gens, 5))

    def test_closure_of_no_words_or_no_generators(self, reference):
        inst, _ = reference
        gens = fix_generators(inst, ())
        assert generator_closure(gens, 0) == [FiberPermutation.identity(inst)]
        assert generator_closure([], 3) == []

    def test_closure_equals_the_composed_words(self):
        # the closure looks each product up by its moved pairs before
        # building it; composing every word with every generator, and
        # skipping the products over a stage's moved bound, finds the same
        # words in the same order.  On [3, 4, 5] some products are skipped
        staged, _ = build_staged_instance([3, 4, 5], 1)
        gens = fix_generators(staged, ())
        ident = FiberPermutation.identity(staged)
        words, frontier, skipped = {ident}, [ident], 0
        for _ in range(3):
            nxt = []
            for w, g in itertools.product(frontier, gens):
                try:
                    wg = w * g
                except InvalidInstance:
                    skipped += 1
                    continue
                if wg not in words:
                    words.add(wg)
                    nxt.append(wg)
            frontier = nxt
        closure = generator_closure(gens, 3)
        assert skipped and len(closure) == len(words) == 800
        assert closure == sorted(words, key=lambda p: (len(p.moved), p.moved))


class TestSupports:
    def test_row_supported_by_own_pair(self, reference):
        inst, family = reference
        assert is_symmetric_under(inst, family.rows[("a", 0)], {("a", 0)})

    def test_site_supported_by_empty(self, reference):
        inst, family = reference
        assert is_symmetric_under(inst, family.sites["a"], ())

    def test_pair_name_not_supported(self, single_site_n3):
        inst, family = single_site_n3
        nm = pair_name(inst, family.rows[("a", 1)], family.rows[("a", 2)])
        assert not is_symmetric_under(inst, nm, {("a", 0)})

    def test_min_support_row(self, reference):
        inst, family = reference
        for (z, a), nm in family.rows.items():
            assert infer_min_support(inst, nm) == frozenset({(z, a)})

    def test_min_support_check_name(self, reference):
        inst, _ = reference
        assert infer_min_support(inst, check_name(inst, ordinal(2))) == frozenset()

    def test_min_support_none_for_pair_name(self, single_site_n3):
        inst, family = single_site_n3
        nm = pair_name(inst, family.rows[("a", 1)], family.rows[("a", 2)])
        assert naive_min_support(inst, nm, act_name, fix_generators) == []
        assert infer_min_support(inst, nm) is None

    def test_min_support_among_oracle_minima(self, reference, swap_scale):
        # the tie-break must pick one of the exhaustively-found minima
        for inst, family in (reference, swap_scale):
            for _, nm in family.members():
                minima = naive_min_support(inst, nm, act_name, fix_generators)
                assert infer_min_support(inst, nm) in minima

    def test_support_monotone(self, swap_scale):
        inst, family = swap_scale
        nm = family.rows[("a", 0)]
        base = infer_min_support(inst, nm)
        for extra in inst.pairs:
            grown = base | {extra}
            if len(grown) <= inst.support_cutoff:
                assert is_symmetric_under(inst, nm, grown)


class TestHereditarilySymmetric:
    def test_rows_and_sites(self, reference):
        inst, family = reference
        assert is_hs(inst, family.rows[("a", 0)])
        assert is_hs(inst, family.sites["a"])

    def test_pair_name_fails(self, single_site_n3):
        inst, family = single_site_n3
        nm = pair_name(inst, family.rows[("a", 1)], family.rows[("a", 2)])
        assert not is_hs(inst, nm)

    def test_subname_failure_propagates(self, single_site_n3):
        inst, family = single_site_n3
        bad = pair_name(inst, family.rows[("a", 1)], family.rows[("a", 2)])
        wrapped = set_name(inst, [bad])
        assert not is_hs(inst, wrapped)


class TestConjugation:
    def test_swap_carries_support(self, reference):
        inst, _ = reference
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        report = conjugation_check(inst, pi, {("a", 0)})
        assert report.ok and report.support_image == frozenset({("a", 1)})

    def test_identity_trivial(self, reference):
        inst, _ = reference
        report = conjugation_check(inst, FiberPermutation.identity(inst), {("b", 1)})
        assert report.ok and report.support_image == frozenset({("b", 1)})

    def test_exhaustive_with_group_crosscheck(self, reference):
        # compare the structural decision against brute-force closures
        inst, _ = reference
        perms = generator_closure(fix_generators(inst, ()), 3)
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        for pi, support in itertools.product(perms, supports):
            report = conjugation_check(inst, pi, support)
            ident = FiberPermutation.identity(inst)
            lhs = group_closure([conjugate(pi, g) for g in fix_generators(inst, support)],
                                ident)
            rhs = group_closure(fix_generators(inst, act_support(pi, support)), ident)
            assert report.ok == (lhs == rhs)
            assert report.ok

    def test_conjugate_matches_composition(self, swap_scale):
        inst, _ = swap_scale
        pi = FiberPermutation.from_cycles(inst, [[("a", 0), ("a", 1), ("a", 2)]])
        g = FiberPermutation.transposition(inst, "a", 0, 1)
        conj = conjugate(pi, g)
        assert conj == pi * g * pi.inverse()
        # a transposition's conjugate is the interned transposition of the
        # image pairs, here (a 1) (a 2)
        assert conj is FiberPermutation.transposition(inst, "a", 1, 2)
        assert conj is FiberPermutation.transposition(inst, "a", 2, 1)

    def test_twelve_index_pairs(self):
        # closure words over twelve pairs, every support within cutoff
        from symext import Poset, build_instance
        inst, _ = build_instance(Poset.antichain(["a", "b"]), 6, 1, 1)
        assert len(inst.pairs) == 12
        perms = generator_closure(fix_generators(inst, ()), 2)
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        for pi in perms:
            for support in supports:
                assert conjugation_check(inst, pi, support).ok


class TestAssemble:
    def test_empty_sequence(self, reference):
        inst, _ = reference
        report = assemble_sequence(inst, [])
        assert report.hs and report.name is EMPTY_NAME
        assert report.certified and report.union_support == frozenset()

    def test_two_rows_within_cutoff(self):
        from symext import Poset, build_instance
        inst, family = build_instance(Poset.antichain(["a", "b"]), 3, 2, 2)
        report = assemble_sequence(inst, [family.rows[("a", 0)], family.rows[("a", 1)]])
        assert report.certified
        assert report.union_support == frozenset({("a", 0), ("a", 1)})
        assert report.hs and report.hs == is_hs(inst, report.name)

    def test_uncertified_bundle_verdict_matches_search(self, single_site_n3):
        # the union of supports misses the cutoff, but the bundle of both
        # rows is invariant under the leftover transposition, so the
        # exhaustive search still finds a support; the verdict follows
        # the search, the certificate stays absent
        inst, family = single_site_n3
        report = assemble_sequence(inst, [family.rows[("a", 0)], family.rows[("a", 1)]])
        assert not report.certified
        assert report.union_support == frozenset({("a", 0), ("a", 1)})
        assert report.hs == is_hs(inst, report.name)
        assert report.hs  # {(a,2)} supports the unordered bundle

    def test_pair_members_not_symmetric(self, single_site_n3):
        inst, family = single_site_n3
        bad = pair_name(inst, family.rows[("a", 1)], family.rows[("a", 2)])
        report = assemble_sequence(inst, [bad])
        assert not report.certified and report.union_support is None
        assert not report.hs

    def test_certified_implies_hs_exhaustive(self, reference):
        # soundness of the union-of-supports certificate over all small bundles
        inst, family = reference
        pool = [nm for _, nm in family.members()][:9]
        for k in (1, 2, 3):
            for combo in itertools.combinations(pool, k):
                report = assemble_sequence(inst, combo)
                if report.certified:
                    assert report.hs
                assert report.hs == is_hs(inst, report.name)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_action_homomorphism_sampled(swap_scale, data):
    inst, family = swap_scale
    perms = generator_closure(fix_generators(inst, ()), 2)
    pi = data.draw(st.sampled_from(perms))
    sigma = data.draw(st.sampled_from(perms))
    p = data.draw(st.sampled_from(list(iter_conditions(inst, 2))))
    assert act_condition(pi * sigma, p) == act_condition(pi, act_condition(sigma, p))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fixation_transfers_along_conjugation(swap_scale, data):
    # if g fixes E pointwise then its conjugate fixes the image of E
    inst, _ = swap_scale
    perms = generator_closure(fix_generators(inst, ()), 2)
    pi = data.draw(st.sampled_from(perms))
    support = data.draw(st.sampled_from([frozenset({p}) for p in inst.pairs]))
    for g in fix_generators(inst, support):
        assert in_fix(conjugate(pi, g), act_support(pi, support))
