"""Seeded defects in the engine functions that decide a name's support and
its stage, that force, that choose a swap's fibers, that relabel a
condition, that test two conditions for agreement, and that conjugate a
permutation.  Each row patches one function (and every engine module's
reference to it, where one imports it by name)
and runs one CLI suite on a shipped spec, with the row's option
overrides; the defect must fail the lines the row names.  A paired row
(SURVIVORS) adds a second defect that hides the first, and the pair
must pass every line of the spec's --suite all.  The instance
and its store memos belong to the parsed spec, and each row parses its
spec with the defect in place, so no memo built by the unpatched engine
hides the defect, and none built by the patched one outlives the row."""

import io
import itertools
import json
from pathlib import Path

import pytest

from symext import (Condition, build_staged_instance, chain_family, fix_generators,
                    in_stage, infer_min_support, is_hs, make_name, name_stage)
from symext import act_name, cli, forcing, instances, kernels, symmetry
from symext.cli import parse_instance_spec, run_checks

from test_kernels import _conflict_at_stage_1_fiber_0, _drop_a_moved_cell

SPECS = Path(__file__).parent.parent / "specs"


def _always_symmetric(inst, x, support):
    return True


def _empty_support(inst, x):
    return frozenset()


def _no_stage(x):
    return None


def _dense_is_up(space, member):
    # the codes with some extension in member, not those below which
    # member is dense
    return space.up(member)


def _partner_ignores_support(inst, support, site, fiber, occupied):
    for b in range(inst.fiber_count(site)):
        if b != fiber and b not in occupied:
            return b
    return None


def _conjugate_is_g(pi, g):
    return g


_swap_fibers = kernels.swap_fibers


def _swap_fibers_ignores_occupied(inst, support, site, fiber, occupied):
    return _swap_fibers(inst, support, site, fiber, ())


_FREE_MATE = [(kernels, "swap_fibers", _swap_fibers_ignores_occupied)]

_assemble_sequence = symmetry.assemble_sequence


def _assemble_under_one_cell(inst, names):
    # each member bundled under the condition {first cell: 1} instead of
    # the top condition; hs is decided on that bundle, the supports and
    # the certificate are the members' own
    names = list(names)
    report = _assemble_sequence(inst, names)
    below = Condition(inst, {inst.cells[0]: 1})
    bundle = make_name([(below, nm) for nm in names])
    return symmetry.AssembleReport(bundle, is_hs(inst, bundle), report.member_supports,
                                   report.union_support, report.certified)


_ONE_CELL_BUNDLE = [(module, "assemble_sequence", _assemble_under_one_cell)
                    for module in (symmetry, cli)]

_DROPPED_CELL = [(module, "act_condition", _drop_a_moved_cell)
                 for module in (symmetry, forcing, kernels, cli)]

# (row id, [(module, function name, replacement)], spec file, suite,
#  option overrides, failing lines, total lines), as measured with the
#  defect in place
MUTANTS = [
    ("symmetric-under-always", [(symmetry, "is_symmetric_under", _always_symmetric)],
     "reference.json", "hs", None, 8, 15),
    ("symmetric-under-always", [(symmetry, "is_symmetric_under", _always_symmetric)],
     "staged.json", "hs", None, 7, 10),
    ("min-support-empty", [(symmetry, "infer_min_support", _empty_support),
                           (cli, "infer_min_support", _empty_support)],
     "reference.json", "hs", None, 8, 15),
    ("min-support-empty", [(symmetry, "infer_min_support", _empty_support),
                           (cli, "infer_min_support", _empty_support)],
     "staged.json", "hs", None, 7, 10),
    ("name-stage-none", [(instances, "name_stage", _no_stage)],
     "staged.json", "wisc", None, 19_504, 107_272),
    ("dense-is-up", [(forcing._Space, "dense", _dense_is_up)],
     "reference.json", "forcing-oracle", {"max_dom": 1}, 177, 357),
    ("dense-is-up", [(forcing._Space, "dense", _dense_is_up)],
     "reference.json", "symmetry-lemma", {"max_dom": 1}, 708, 1428),
    ("partner-ignores-support", [(kernels, "partner", _partner_ignores_support)],
     "reference.json", "swap", {"max_dom": 1}, 52, 208),
    ("partner-ignores-support", [(kernels, "partner", _partner_ignores_support)],
     "staged.json", "wisc", {"max_dom": 1}, 612, 2448),
    # at max_dom 1 no condition touches a fiber the mate could take
    ("swap-fibers-ignore-occupied", _FREE_MATE,
     "reference.json", "swap", {"max_dom": 2}, 48, 1548),
    # parsing does not check the canonical family, so the hs suite is
    # where a broken action shows on it
    ("act-drops-a-moved-cell", _DROPPED_CELL,
     "reference.json", "hs", None, 4, 15),
    ("act-drops-a-moved-cell", _DROPPED_CELL,
     "staged.json", "hs", None, 3, 10),
    ("act-drops-a-moved-cell", _DROPPED_CELL,
     "reference.json", "symmetry-lemma", {"max_dom": 1}, 227, 1428),
    ("act-drops-a-moved-cell", _DROPPED_CELL,
     "reference.json", "swap", {"max_dom": 1}, 156, 156),
    # the fault splits one transposition's steps into failing and
    # passing ones, which the wisc suite's step groups must keep apart
    ("conflict-at-stage-1-fiber-0",
     [(kernels, "_conflict", _conflict_at_stage_1_fiber_0)],
     "staged.json", "wisc", {"max_dom": 1}, 384, 2448),
    ("conjugate-is-g", [(symmetry, "conjugate", _conjugate_is_g)],
     "staged.json", "normality", None, 234, 525),
    # every transposition of the first cell's fiber moves the bundle's
    # condition, so a bundle the members' supports certify can fail to be
    # hereditarily symmetric: the normality suite's assembly units fail
    ("bundle-under-one-cell", _ONE_CELL_BUNDLE,
     "reference.json", "normality", None, 6, 41),
    ("bundle-under-one-cell", _ONE_CELL_BUNDLE,
     "staged.json", "normality", None, 18, 525),
]


@pytest.mark.parametrize(
    "patches, spec_file, suite, overrides, failing, total",
    [pytest.param(*row[1:], id=f"{row[0]}-{row[2].split('.')[0]}-{row[3]}")
     for row in MUTANTS])
def test_seeded_defect_fails_its_suite(patches, spec_file, suite, overrides, failing,
                                       total, monkeypatch):
    for module, attr, replacement in patches:
        monkeypatch.setattr(module, attr, replacement)
    spec = parse_instance_spec((SPECS / spec_file).read_text())
    out = io.StringIO()
    code = run_checks(spec, suite, overrides=overrides, out=out)
    verdicts = [json.loads(line)["verdict"] for line in out.getvalue().splitlines()]
    assert code == 1
    assert (verdicts.count("fail"), len(verdicts)) == (failing, total)


def _in_fix_always(pi, support):
    return True


def _no_conflict(p, q):
    return None


# paired defects that must survive --suite all at the default options:
# (first id, its patches, second id, its patches, spec file, lines the
# first fails alone, total lines).  The partner rule picks both fibers
# outside the support and a mate that q does not touch, so on the steps
# it builds every transposition fixes the support (in_fix is true) and
# q's image agrees with q (_conflict is None).  The first defect breaks
# that rule, and the second turns off the flag that sees it there: the
# stabilizer flag for a fiber inside the support, the compatibility flag
# for a mate q touches; with both in place every line passes.  On the
# reference spec, the first pair still fails 292 of 14,773 lines, so it
# is a staged row only
SURVIVORS = [
    ("partner-ignores-support", [(kernels, "partner", _partner_ignores_support)],
     "in-fix-always", [(kernels, "in_fix", _in_fix_always)],
     "staged.json", 15_012, 60_600),
    ("swap-fibers-ignore-occupied", _FREE_MATE,
     "no-conflict", [(kernels, "_conflict", _no_conflict)],
     "reference.json", 48, 15_153),
    ("swap-fibers-ignore-occupied", _FREE_MATE,
     "no-conflict", [(kernels, "_conflict", _no_conflict)],
     "staged.json", 384, 60_600),
]


def _verdicts(spec_file):
    """(exit status, failing lines, total lines) of --suite all on the spec."""
    spec = parse_instance_spec((SPECS / spec_file).read_text())
    out = io.StringIO()
    code = run_checks(spec, "all", out=out)
    verdicts = [json.loads(line)["verdict"] for line in out.getvalue().splitlines()]
    return code, verdicts.count("fail"), len(verdicts)


@pytest.mark.parametrize(
    "first, second, spec_file, failing, total",
    [pytest.param(row[1], row[3], *row[4:],
                  id=f"{row[0]}+{row[2]}-{row[4].split('.')[0]}")
     for row in SURVIVORS])
def test_paired_defects_survive(first, second, spec_file, failing, total, monkeypatch):
    for module, attr, replacement in first:
        monkeypatch.setattr(module, attr, replacement)
    assert _verdicts(spec_file) == (1, failing, total)
    for module, attr, replacement in second:
        monkeypatch.setattr(module, attr, replacement)
    assert _verdicts(spec_file) == (0, 0, total)


# one row per suite whose generator reads verdicts off fail masks or
# runs its checks itself; the hs suite's params name the support the
# search found, which a defect may change, and embedding and chains have
# no row
_SAME_PARAMS = {("dense-is-up", "reference.json", "forcing-oracle"),
                ("dense-is-up", "reference.json", "symmetry-lemma"),
                ("act-drops-a-moved-cell", "reference.json", "swap"),
                ("conflict-at-stage-1-fiber-0", "staged.json", "wisc"),
                ("conjugate-is-g", "staged.json", "normality")}


def _lines(spec_text, suite, overrides):
    out = io.StringIO()
    run_checks(parse_instance_spec(spec_text), suite, overrides=overrides, out=out)
    return out.getvalue().splitlines()


@pytest.mark.parametrize(
    "patches, spec_file, suite, overrides, failing, total",
    [pytest.param(*row[1:], id=f"{row[0]}-{row[2].split('.')[0]}-{row[3]}")
     for row in MUTANTS if (row[0], row[2], row[3]) in _SAME_PARAMS])
def test_a_defect_changes_only_verdicts(patches, spec_file, suite, overrides, failing,
                                        total, monkeypatch):
    # a generator writes a passing line from shared prefixes without
    # reading the unit's checks, so the defect must leave every params
    # text as the clean run wrote it, line for line
    text = (SPECS / spec_file).read_text()
    clean = _lines(text, suite, overrides)
    for module, attr, replacement in patches:
        monkeypatch.setattr(module, attr, replacement)
    broken = _lines(text, suite, overrides)
    assert len(clean) == len(broken) == total

    def params(line):
        return line[:line.index(', "verdict": ')]

    assert [params(line) for line in broken] == [params(line) for line in clean]
    assert sum('"verdict": "fail"' in line for line in broken) == failing
    assert not any('"verdict": "fail"' in line for line in clean)


def test_on_the_staged_spec_only_hs_catches_a_dropped_moved_cell(monkeypatch):
    for module, attr, replacement in _DROPPED_CELL:
        monkeypatch.setattr(module, attr, replacement)
    spec = parse_instance_spec((SPECS / "staged.json").read_text())
    out = io.StringIO()
    assert run_checks(spec, "all", overrides={"max_dom": 1}, out=out) == 1
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert {line["suite"] for line in lines} == {"hs", "normality", "wisc", "chains"}
    assert [line["suite"] for line in lines if line["verdict"] == "fail"] == ["hs"] * 3


def _stage_local_min_supports(inst, x, stage):
    """Every minimal-size support of x found by a search whose supports
    and stabilizer generators use only sites up to the stage."""
    pairs = [p for p in inst.pairs if p[0] <= stage]
    for size in range(inst.support_cutoff + 1):
        found = [frozenset(combo) for combo in itertools.combinations(pairs, size)
                 if all(act_name(g, x) is x for g in fix_generators(inst, combo)
                        if g.moved[0][0][0] <= stage)]
        if found:
            return found
    return []


def test_least_support_stays_within_the_name_stage():
    # the stage rule rests on this: a transposition above a name's stage
    # fixes the name, so its least support needs no pair above that stage
    staged, family = build_staged_instance([3, 4, 5], 1)
    names = [nm for _, nm in family.members()] + chain_family(staged)
    names = [nm for nm in names if name_stage(nm) is not None]
    assert len(names) == 3 + 4 + 5 + 3 + 1 + 3
    for nm in names:
        support = infer_min_support(staged, nm)
        assert support is not None
        assert all(site <= name_stage(nm) for site, _ in support)
        # at every stage the name lives at, the stage-bounded search
        # finds the same least support
        for stage in staged.sites:
            if in_stage(nm, stage):
                assert support in _stage_local_min_supports(staged, nm, stage)


def _lemma_without_mode_term(ls, rs, lr, rr):
    # forcing.lemma_disagreement without its ls ^ lr term
    return (ls ^ rs) | (lr ^ rr)


def test_the_lemma_rule_is_written_once(monkeypatch):
    # the symmetry-lemma suite's fail masks and the one-shot
    # symmetry_lemma_check read one rule: under dense-is-up, which puts
    # the two modes apart alike on both sides, dropping the rule's
    # mode term turns failing units into passing ones, in the suite and
    # in the one-shot check on the same units alike.  The suite runs the
    # one-shot check only on a set bit of a fail mask, so a mask the rule
    # did not write would run it on passing units
    assert cli.lemma_disagreement is forcing.lemma_disagreement
    monkeypatch.setattr(forcing._Space, "dense", _dense_is_up)
    text, overrides = (SPECS / "reference.json").read_text(), {"max_dom": 1}
    checked = []

    def counted(*args):
        checked.append(args)
        return forcing.symmetry_lemma_check(*args)

    monkeypatch.setattr(cli, "symmetry_lemma_check", counted)

    def verdicts():
        spec = parse_instance_spec(text)
        out = io.StringIO()
        checked.clear()
        run_checks(spec, "symmetry-lemma", overrides=overrides, out=out)
        suite = [json.loads(line)["verdict"] == "pass"
                 for line in out.getvalue().splitlines()]
        assert len(checked) == suite.count(False)
        ctx = cli._context(spec, overrides)
        one_shot = [forcing.symmetry_lemma_check(perm, q, phi).equal
                    for perm, q, (_, phi) in itertools.product(
                        ctx["perms"], ctx["conditions"], ctx["pool"])]
        assert suite == one_shot
        return suite

    whole = verdicts()
    for module in (forcing, cli):
        monkeypatch.setattr(module, "lemma_disagreement", _lemma_without_mode_term)
    partial = verdicts()
    assert len(whole) == len(partial) == 1428 and whole.count(False) == 708
    changed = [i for i, (a, b) in enumerate(zip(whole, partial)) if a != b]
    assert changed and all(partial[i] and not whole[i] for i in changed)
