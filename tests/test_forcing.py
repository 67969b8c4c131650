import itertools
from types import SimpleNamespace

import pytest

from symext import (And, Condition, Eq, FiberPermutation, GenericFilter,
                    Instance, InvalidInstance, Mem, MismatchedInstance, Not,
                    ParseError, Poset, act_condition, act_formula,
                    build_instance, canonical_family, check_name, core,
                    forces, forcing_vectors, forcing,
                    generic_filters, generator_closure, fix_generators,
                    iter_conditions, make_name, ordinal, pair_name,
                    parse_formula, row_name, set_name,
                    symmetry_lemma_check)
from symext.cli import default_formula_pool
from symext.forcing import _filter_space, _separating_filter, _space
from symext.names import EMPTY_NAME

from _oracles import (cond_holds, extends, hf_to_frozen, naive_eval, naive_forces,
                      naive_interpret, naive_recursive_forces, site_name,
                      total_assignments)


def small_pool(inst, family):
    o = [check_name(inst, ordinal(k)) for k in range(3)]
    rows = sorted(family.rows)
    r = [family.rows[k] for k in rows]
    s = [family.sites[z] for z in sorted(family.sites)]
    atoms = [
        Eq(r[0], r[1]), Eq(r[0], o[0]), Eq(o[0], o[1]), Eq(o[1], o[1]),
        Mem(o[0], r[0]), Mem(o[1], r[0]), Mem(r[0], s[0]), Mem(o[0], o[1]),
        Mem(o[0], o[2]),
    ]
    if len(s) > 1:
        atoms += [Eq(s[0], s[1]), Mem(r[0], s[-1]), Mem(r[-1], s[0])]
    return atoms + [Not(atoms[0]), Not(atoms[4]),
                    And(atoms[0], atoms[4]), And(atoms[2], atoms[7])]


class TestExamples:
    def test_top_forces_reflexive_equality(self, reference):
        inst, _ = reference
        x = check_name(inst, ordinal(2))
        top = Condition.top(inst)
        assert forces(top, Eq(x, x), "semantic")
        assert forces(top, Eq(x, x), "recursive")

    def test_single_cell_forces_membership(self, reference):
        # frozen via the brute-force oracle first
        inst, family = reference
        p = Condition(inst, {("a", 0, 0): 1})
        phi = Mem(check_name(inst, ordinal(0)), family.rows[("a", 0)])
        assert naive_forces(inst, p, phi) is True
        assert forces(p, phi, "semantic")
        assert forces(p, phi, "recursive")

    def test_equivariance_of_the_example(self, reference):
        inst, family = reference
        p = Condition(inst, {("a", 0, 0): 1})
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        lhs = forces(p, Mem(check_name(inst, ordinal(0)), family.rows[("a", 0)]))
        rhs = forces(act_condition(pi, p),
                     Mem(check_name(inst, ordinal(0)), family.rows[("a", 1)]))
        assert lhs == rhs is True

    def test_unforced_and_refuted(self, reference):
        inst, family = reference
        top = Condition.top(inst)
        phi = Mem(check_name(inst, ordinal(0)), family.rows[("a", 0)])
        assert not forces(top, phi, "semantic")
        assert not forces(top, phi, "recursive")
        assert not forces(top, Not(phi), "semantic")
        assert not forces(top, Not(phi), "recursive")
        p0 = Condition(inst, {("a", 0, 0): 0})
        assert forces(p0, Not(phi), "semantic")
        assert forces(p0, Not(phi), "recursive")


class TestModeAgreement:
    def test_exhaustive_tiny(self, tiny):
        inst, family = tiny
        pool = small_pool(inst, family)
        for p in iter_conditions(inst):
            for phi in pool:
                assert forces(p, phi, "recursive") == forces(p, phi, "semantic")

    def test_semantic_matches_naive_oracle_tiny(self, tiny):
        inst, family = tiny
        pool = small_pool(inst, family)
        for p in iter_conditions(inst, 2):
            for phi in pool:
                assert forces(p, phi, "semantic") == naive_forces(inst, p, phi)

    def test_semantic_matches_naive_oracle_reference(self, reference):
        inst, family = reference
        pool = default_formula_pool(family)
        for p in iter_conditions(inst, 1):
            for _, phi in pool:
                assert forces(p, phi, "semantic") == naive_forces(inst, p, phi)

    def test_spot_reference(self, reference):
        inst, family = reference
        pool = small_pool(inst, family)
        for p in iter_conditions(inst, 1):
            for phi in pool:
                assert forces(p, phi, "recursive") == forces(p, phi, "semantic")


class TestProperties:
    def test_persistence(self, tiny):
        inst, family = tiny
        pool = small_pool(inst, family)
        conds = list(iter_conditions(inst))
        for phi in pool:
            for p, q in itertools.product(conds, repeat=2):
                if extends(q, p) and forces(p, phi, "recursive"):
                    assert forces(q, phi, "recursive")

    def test_truth_lemma_literal(self, tiny):
        # phi holds under a filter iff some condition in the filter forces it
        inst, family = tiny
        pool = small_pool(inst, family)
        conds = list(iter_conditions(inst))
        for assign in total_assignments(inst.cells):
            filt = GenericFilter.from_assignment(inst, assign)
            members = [p for p in conds if filt.contains(p)]
            for phi in pool:
                holds = naive_eval(phi, assign)
                assert holds == any(forces(p, phi, "recursive") for p in members)

    def test_decided_by_atoms(self, tiny):
        # a total condition forces phi or not-phi
        inst, family = tiny
        pool = small_pool(inst, family)
        total = Condition(inst, {c: 0 for c in inst.cells})
        for phi in pool:
            assert forces(total, phi, "recursive") != forces(total, Not(phi), "recursive")


class TestSymmetryLemma:
    def test_identity_always_equal(self, tiny):
        inst, family = tiny
        ident = FiberPermutation.identity(inst)
        for phi in small_pool(inst, family)[:6]:
            report = symmetry_lemma_check(ident, Condition.top(inst), phi)
            assert report.equal

    def test_swap_on_row_equality(self, reference):
        inst, family = reference
        pi = FiberPermutation.transposition(inst, "a", 0, 1)
        phi = Eq(family.rows[("a", 0)], family.rows[("a", 1)])
        report = symmetry_lemma_check(pi, Condition.top(inst), phi)
        assert report.equal

    def test_exhaustive_tiny(self, tiny):
        inst, family = tiny
        pool = small_pool(inst, family)
        perms = generator_closure(fix_generators(inst, ()), 3)
        for pi in perms:
            for p in iter_conditions(inst, 2):
                for phi in pool:
                    assert symmetry_lemma_check(pi, p, phi).equal


class TestSyntax:
    def resolver(self, inst, family):
        def resolve(node):
            if isinstance(node, tuple):
                raise ParseError("no constructors in this test")
            kind, *rest = str(node).split(":")
            if kind == "ord":
                return check_name(inst, ordinal(int(rest[0])))
            if kind == "row":
                return family.rows[(rest[0], int(rest[1]))]
            raise ParseError(f"unknown {node!r}")
        return resolve

    def test_round_trip(self, reference):
        inst, family = reference
        resolve = self.resolver(inst, family)
        text = "(and (mem ord:0 row:a:0) (not (eq row:a:0 row:a:1)))"
        row0, row1 = family.rows[("a", 0)], family.rows[("a", 1)]
        assert parse_formula(text, resolve) == And(
            Mem(check_name(inst, ordinal(0)), row0), Not(Eq(row0, row1)))

    def test_formula_types_are_distinct_keys(self, reference):
        # formulas key the forcing memos and the CLI's vectors, so two
        # connectives over the same operands must stay apart
        inst, family = reference
        x, y = family.rows[("a", 0)], family.rows[("a", 1)]
        eq, mem = Eq(x, y), Mem(x, y)
        assert eq == Eq(x, y) and hash(eq) == hash(Eq(left=x, right=y))
        assert eq != mem and Not(eq) != Not(mem) and And(eq, mem) != And(mem, eq)
        assert And(eq, mem) != Mem(eq, mem)
        keys = {eq: "eq", mem: "mem", Not(eq): "not", And(eq, eq): "and"}
        assert len(keys) == 4 and keys[Mem(x, y)] == "mem"
        assert repr(Not(eq)) == f"Not(body=Eq(left={x!r}, right={y!r}))"
        with pytest.raises(AttributeError):
            eq.left = y

    def test_formula_never_equals_its_operand_tuple(self, reference):
        # a formula is not the plain tuple of its operands, whichever side
        # comes first and under == and != alike
        inst, family = reference
        x, y = family.rows[("a", 0)], family.rows[("a", 1)]
        eq = Eq(x, y)
        for formula, operands in ((eq, (x, y)), (Mem(x, y), (x, y)),
                                  (Not(eq), (eq,)), (And(eq, eq), (eq, eq))):
            assert not formula == operands and not operands == formula
            assert formula != operands and operands != formula
            assert len({formula: 0, operands: 1}) == 2

    def test_parse_errors(self, reference):
        inst, family = reference
        resolve = self.resolver(inst, family)
        for bad in ("(mem ord:0", "(foo a b)", "(eq ord:0)", "ord:0", "(not)"):
            with pytest.raises(ParseError):
                parse_formula(bad, resolve)

    def test_towers_past_the_nesting_bound_are_parse_errors(self, reference):
        # the reader stops at the bound, before the stack runs out
        inst, family = reference
        resolve = self.resolver(inst, family)
        for text in ("(not " * 2000 + "(eq ord:0 ord:0)" + ")" * 2000,
                     "(eq " + "(set " * 2000 + "row:a:0" + ")" * 2000 + " ord:0)"):
            with pytest.raises(ParseError, match="nests more than"):
                parse_formula(text, resolve)


class TestFilterSpace:
    def test_extension_mask_lists_the_filters_containing_the_condition(self, reference):
        inst, _ = reference
        fs = _filter_space(inst)
        filters = list(generic_filters(inst))
        assert fs.full == (1 << len(filters)) - 1
        for p in iter_conditions(inst, 2):
            mask = fs.ext(p)
            assert [bool(mask >> i & 1) for i in range(len(filters))] == \
                [filt.contains(p) for filt in filters]

    def test_separating_filter_is_the_first_failing_filter(self, reference):
        inst, family = reference
        pool = default_formula_pool(family)
        unforced = 0
        for p in iter_conditions(inst, 1):
            for _, phi in pool:
                scan = next((filt for filt in generic_filters(inst, p)
                             if not naive_eval(phi, dict(zip(inst.cells, filt.bits)))),
                            None)
                assert _separating_filter(p, phi) == (None if scan is None
                                                      else list(scan.bits))
                unforced += scan is not None
        assert unforced > 0

    @pytest.mark.parametrize("mode", ["semantic", "recursive"])
    def test_mismatch_raised_after_mask_or_table_exists(self, mode, reference, tiny):
        inst, family = reference
        other, _ = tiny
        phi = Mem(check_name(inst, ordinal(0)), family.rows[("a", 0)])
        forces(Condition.top(inst), phi, mode)
        for _ in range(2):
            with pytest.raises(MismatchedInstance):
                forces(Condition.top(other), phi, mode)


def nested_names(inst):
    """Nested set and pair names over the rows of a one-site instance,
    names whose inner entries carry conditions, and a (set ...) tower."""
    cells = inst.cells
    r = [row_name(inst, "a", a) for a in range(inst.fiber_count("a"))]
    o = [check_name(inst, ordinal(k)) for k in range(3)]
    p01, p10 = pair_name(inst, r[0], r[1]), pair_name(inst, r[1], r[0])
    guarded = make_name([(Condition(inst, {cells[0]: 1}), r[1]),
                         (Condition(inst, {cells[3]: 0, cells[5]: 1}), p01),
                         (Condition(inst, {cells[1]: 0}), o[1])])
    tower, cond_tower = [r[0]], [r[0]]
    for k in range(4):
        tower.append(set_name(inst, [tower[-1]]))
        cond_tower.append(make_name([(Condition(inst, {cells[2 * k]: 1}), cond_tower[-1]),
                                     (Condition.top(inst), r[k + 1])]))
    return r, o, p01, p10, guarded, tower, cond_tower


class TestPartitions:
    """Semantic truth masks are read off each name's partition of the
    filters by value; both must match the naive per-assignment
    interpretation on an instance of 10 cells."""

    @pytest.fixture(scope="class")
    def ten_cells(self):
        inst = Instance.flat(Poset.antichain(["a"]), 5, 2, 1)
        assert len(inst.cells) == 10
        return inst

    def test_truth_masks_match_naive_eval(self, ten_cells):
        inst = ten_cells
        r, o, p01, p10, guarded, tower, cond_tower = nested_names(inst)
        pool = [Eq(p01, p10), Eq(r[0], r[1]), Mem(o[1], r[0]), Mem(r[1], guarded),
                Mem(p01, guarded), Mem(o[1], guarded), Mem(tower[2], tower[3]),
                Eq(tower[3], cond_tower[3]), Mem(cond_tower[2], cond_tower[3]),
                Mem(cond_tower[3], set_name(inst, [cond_tower[3], p10])),
                Eq(set_name(inst, [p01, guarded]), set_name(inst, [guarded, p10])),
                And(Not(Eq(p01, p10)), Mem(tower[1], cond_tower[2]))]
        fs = _filter_space(inst)
        masks = [fs.truth(phi) for phi in pool]
        # all but the two memberships that hold by construction depend on
        # the filter
        assert sum(0 < mask < fs.full for mask in masks) == len(pool) - 2
        for i, assign in enumerate(total_assignments(inst.cells)):
            for phi, mask in zip(pool, masks):
                assert bool(mask >> i & 1) == naive_eval(phi, assign), (i, phi)

    def test_each_name_partitions_the_filters_by_its_value(self, ten_cells):
        inst = ten_cells
        r, o, p01, p10, guarded, tower, cond_tower = nested_names(inst)
        fs = _filter_space(inst)
        names = [*r, *o, p01, p10, guarded, *tower, *cond_tower]
        parts = [fs.part(x) for x in names]
        for classes in parts:
            union = 0
            for mask in classes.values():
                assert mask and union & mask == 0
                union |= mask
            assert union == fs.full
        assert max(len(classes) for classes in parts) > 2
        owner = [{} for _ in names]
        for classes, where in zip(parts, owner):
            for v, mask in classes.items():
                while mask:
                    where[(mask & -mask).bit_length() - 1] = hf_to_frozen(v)
                    mask &= mask - 1
        for i, assign in enumerate(total_assignments(inst.cells)):
            for x, where in zip(names, owner):
                assert where[i] == naive_interpret(x, assign)

    def test_semantic_vectors_build_no_filter(self, monkeypatch):
        # a fresh instance: its filter space and masks are built here
        inst, family = build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 8)

        def no_filter(self, *args, **kwargs):
            raise AssertionError("a generic filter was built")

        monkeypatch.setattr(core.GenericFilter, "__init__", no_filter)
        vector = forcing_vectors(list(iter_conditions(inst, 1)), "semantic")
        for _, phi in default_formula_pool(family):
            vector(phi)
        assert inst.store.filter_space is not None


class TestForcingVector:
    """forcing_vectors must give, bit for bit, what forces gives at each
    condition, in both modes."""

    @staticmethod
    def assert_matches_forces(conds, pool, vectors=None):
        """Each mode's vector function (forcing_vectors(conds, mode) by
        default) against forces at each condition of conds."""
        vectors = vectors or {mode: forcing_vectors(conds, mode)
                              for mode in ("semantic", "recursive")}
        for mode, vector in vectors.items():
            for phi in pool:
                bits = vector(phi)
                assert bits >> len(conds) == 0
                assert [bool(bits >> i & 1) for i in range(len(conds))] == \
                    [forces(p, phi, mode) for p in conds], (phi, mode)

    def test_reference_pool_images_and_nesting(self, reference):
        inst, family = reference
        pool = [phi for _, phi in default_formula_pool(family)]
        perms = generator_closure(fix_generators(inst, ()), 3)
        images = {act_formula(pi, phi) for pi in perms for phi in pool}
        nested = [Not(And(pool[0], Not(pool[6]))), And(Not(pool[1]), Not(Not(pool[7])))]
        assert len(images - set(pool)) > 0
        self.assert_matches_forces(list(iter_conditions(inst, 2)),
                                   pool + sorted(images - set(pool), key=repr) + nested)

    def test_staged_single_stage(self):
        inst = staged_single()
        self.assert_matches_forces(list(iter_conditions(inst)), row_pool(inst))

    @pytest.mark.parametrize("mode", ["semantic", "recursive"])
    def test_empty_list_and_mixed_instances(self, mode, reference, tiny):
        inst, family = reference
        other, _ = tiny
        phi = Mem(check_name(inst, ordinal(0)), family.rows[("a", 0)])
        assert forcing_vectors([], mode)(phi) == 0
        with pytest.raises(MismatchedInstance):
            forcing_vectors([Condition.top(inst), Condition.top(other)], mode)

    def test_unknown_mode(self, reference):
        inst, _ = reference
        phi = Eq(EMPTY_NAME, EMPTY_NAME)
        for conds in ([], [Condition.top(inst)]):
            with pytest.raises(ValueError, match="unknown mode"):
                forcing_vectors(conds, "bogus")
        with pytest.raises(ValueError, match="unknown mode"):
            forces(Condition.top(inst), phi, "bogus")

    def test_a_vector_function_keeps_the_list_it_was_given(self, reference):
        # the list is indexed at the forcing_vectors call: a function built
        # before the list changes answers for the list as it was, even for
        # formulas first read after the change, and a fresh call reads the
        # list as it is now
        inst, family = reference
        pool = [phi for _, phi in default_formula_pool(family)]
        conds = list(iter_conditions(inst, 2))
        original = list(conds)
        kept = {mode: forcing_vectors(conds, mode) for mode in ("semantic", "recursive")}
        conds[0], conds[-1] = conds[-1], conds[0]
        conds[3] = next(p for p in iter_conditions(inst, 3) if len(p) == 3)
        del conds[5:9]
        self.assert_matches_forces(original, pool, kept)
        self.assert_matches_forces(conds, pool)
        for mode, vector in kept.items():
            fresh = forcing_vectors(conds, mode)
            assert [fresh(phi) for phi in pool] != [vector(phi) for phi in pool]

    @pytest.mark.parametrize("mode", ["semantic", "recursive"])
    def test_mixed_list_raises_at_the_call(self, mode, reference, tiny, monkeypatch):
        # the instance check runs when the list is indexed, before any
        # formula is read: reading one here would fail the test
        inst, _ = reference
        other, _ = tiny
        conds = list(iter_conditions(inst, 1))
        stranger = Condition.top(other)

        def no_formula(self, phi):
            raise AssertionError("a formula was read")

        monkeypatch.setattr(forcing._FilterSpace, "truth", no_formula)
        monkeypatch.setattr(forcing._Space, "rec_table", no_formula)
        for mixed in (conds + [stranger], conds[:3] + [stranger] + conds[3:],
                      [stranger] + conds):
            with pytest.raises(MismatchedInstance):
                forcing_vectors(mixed, mode)

    def test_ten_cell_vectors_match_the_oracles(self):
        # one site, 5 fibers, 2 slots, at most 2 cells set: the forcing
        # suites' largest benchmark lattice, 201 conditions
        inst, family = build_instance(Poset.antichain(["a"]), 5, 2, 1, 2)
        assert len(inst.cells) == 10
        conds = list(iter_conditions(inst))
        pool = [phi for _, phi in default_formula_pool(family)]
        assigns = list(total_assignments(inst.cells))
        # the filters containing each condition (semantic forcing needs
        # no cutoff, so every total assignment counts)
        ext = [[i for i, assign in enumerate(assigns) if cond_holds(p, assign)]
               for p in conds]
        memo = {}
        vectors = {mode: forcing_vectors(conds, mode) for mode in ("semantic", "recursive")}
        for phi in pool:
            truth = [naive_eval(phi, assign) for assign in assigns]
            semantic = vectors["semantic"](phi)
            recursive = vectors["recursive"](phi)
            assert [bool(semantic >> i & 1) for i in range(len(conds))] == \
                [all(truth[j] for j in e) for e in ext], phi
            assert [bool(recursive >> i & 1) for i in range(len(conds))] == \
                [naive_recursive_forces(inst, p, phi, memo) for p in conds], phi


def reference_cut():
    """The reference poset with domain cutoff 3."""
    return build_instance(Poset.antichain(["a", "b"]), 2, 2, 1, 3)[0]


def two_limits():
    """8 cells on two sites: at most 2 set on site a, 3 in all."""
    return Instance("flat", Poset.antichain(["a", "b"]), (2, 2), (2, 2), 1,
                    ((1, 2), (2, 3)), (2, 2))


def three_uneven_limits():
    """Sites of 2, 2 and 3 cells, one limit ending after each."""
    return Instance("flat", Poset.antichain(["a", "b", "c"]), (1, 2, 3),
                    (2, 1, 1), 1, ((1, 1), (2, 2), (3, 3)), (1, 2, 3))


def staged_single():
    """One stage of size 3: at most 2 of its 9 cells set."""
    return Instance.staged((3,), 1)


def row_pool(inst):
    """small_pool over the row and site names of any instance."""
    names = SimpleNamespace(
        rows={(z, a): row_name(inst, z, a) for z, a in inst.pairs},
        sites={z: site_name(inst, z) for z in inst.sites})
    return small_pool(inst, names)


def code_items(inst, code):
    items = []
    for cell in inst.cells:
        code, trit = divmod(code, 3)
        if trit:
            items.append((cell, trit - 1))
    return tuple(items)


class TestRecursiveSpace:
    @pytest.mark.parametrize("build", [reference_cut, two_limits])
    def test_matches_naive_recursion_on_cutoff_instances(self, build):
        # mode agreement holds only where conditions may grow total, so a
        # cut-off lattice needs this reference of its own
        inst = build()
        family = canonical_family(inst)
        pool = small_pool(inst, family) + [
            phi for _, phi in default_formula_pool(family)]
        memo = {}
        for p in iter_conditions(inst):
            for phi in pool:
                assert forces(p, phi, "recursive") == \
                    naive_recursive_forces(inst, p, phi, memo), (p.items, phi)

    @pytest.mark.parametrize(
        "build", [reference_cut, two_limits, three_uneven_limits, staged_single])
    def test_valid_codes_are_the_conditions(self, build):
        inst = build()
        sp = _space(inst)
        for code in range(3 ** len(inst.cells)):
            ok = inst.condition_violation(code_items(inst, code)) is None
            assert bool(sp.valid >> code & 1) == ok, code_items(inst, code)
        for phi in row_pool(inst):
            forces(Condition.top(inst), phi, "recursive")
        tables = [*sp._eq.values(), *sp._mem.values(), *sp._rec.values()]
        assert tables
        for table in tables:
            assert table & ~sp.valid == 0


class TestSpaceGuards:
    @pytest.mark.parametrize("build, match", [
        (lambda: Instance.staged((3, 4), 1), r"25 cells \(3\^25 codes\)"),
        # one cell past the ceiling, wherever the ceiling is set
        (lambda: Instance.flat(Poset.antichain(["a"]), forcing._SPACE_CELLS + 1, 1, 1),
         rf"{forcing._SPACE_CELLS + 1} cells"),
    ], ids=["staged-25", "flat-past-ceiling"])
    def test_large_instance_rejected_for_recursive_mode(self, build, match):
        with pytest.raises(InvalidInstance, match=match):
            _space(build())

    def test_large_instance_rejected_for_semantic_mode(self, staged_pair, monkeypatch):
        staged, _ = staged_pair

        def must_reject(inst, *modes):
            check_size(inst, *modes)
            raise AssertionError("filter space built for a rejected instance")

        check_size = forcing.check_size
        monkeypatch.setattr(forcing, "check_size", must_reject)
        phi = Eq(EMPTY_NAME, EMPTY_NAME)
        with pytest.raises(InvalidInstance, match=r"25 cells \(2\^25 filters\)"):
            forces(Condition.top(staged), phi, "semantic")
        assert staged.store.filter_space is None

    def test_act_formula_structure(self, reference):
        inst, family = reference
        pi = FiberPermutation.transposition(inst, "b", 0, 1)
        phi = And(Mem(family.rows[("b", 0)], family.sites["b"]),
                  Not(Eq(family.rows[("b", 0)], family.rows[("b", 1)])))
        moved = act_formula(pi, phi)
        assert moved.left.left is family.rows[("b", 1)]
        assert moved.right.body.right is family.rows[("b", 0)]
