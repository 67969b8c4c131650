import collections
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symext import (Compat, Condition, EngineError, FiberExhausted,
                    FiberPermutation, InvalidInstance, ParseError,
                    assemble_sequence, conjugation_check, forces, in_stage,
                    is_hs, iter_conditions, swap_kernel, swap_step,
                    symmetry_lemma_check, wisc_kernel)
from symext import cli, forcing, instances, kernels, symmetry
from symext.cli import (InstanceSpec, default_formula_pool, main,
                        parse_instance_spec, run_checks, _context, _gen_swap,
                        _gen_wisc, _plan_groups)
from symext.kernels import wisc_key

from test_kernels import _conflict_at_stage_1_fiber_0, _flat_steps
from test_mutants import _DROPPED_CELL, _partner_ignores_support

REFERENCE = ('{"poset": {"elements": ["a", "b"], "leq": []}, '
             '"n": 2, "v": 2, "c": 1, "d": 8}')
STAGED = '{"stages": [3, 4], "c": 1}'
SPECS = Path(__file__).parent.parent / "specs"
FLAT_FIELDS = '"poset": {"elements": ["a", "b"], "leq": []}, "n": 2, "v": 2'

# every spec here must exit 2 with a message: wrong container types,
# JSON booleans where an integer is expected, a non-integer max_dom,
# ill-typed poset elements and relation pairs, an ordinal past the
# bound, negative bounds and sample counts, empty suite and formula
# lists (which would otherwise read as the defaults), flat-only keys
# on a staged spec, a file that is not UTF-8, JSON nested past Python's
# recursion limit, formulas nested past the bound on formula nesting,
# string sites that cannot be written in a name term, and instances
# past the cell cap
MALFORMED = [
    '{"poset": {"elements": ["a", 1], "leq": []}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a", "b"], "leq": [["a"]]}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": "ab", "leq": []}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a", "b"], "leq": "ab"}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a", "b"], "leq": [["a", ["b"]]]}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": [0, 1], "leq": [[true, 0]]}, "n": 2, "v": 2, "c": 1}',
    '{%s, "c": 1, "formulas": "(eq ord:0 ord:0)"}' % FLAT_FIELDS,
    '{%s, "c": 1, "formulas": ["(eq ord:0 ord:0)", 1]}' % FLAT_FIELDS,
    '{"stages": [3, 4], "c": 1, "suites": "hs"}',
    '{"stages": [3, 4], "c": 1, "suites": ["hs", 1]}',
    '{"stages": [3, 4], "c": 1, "suites": []}',
    '{%s, "c": 1, "suites": ["forcing-oracle"], "max_dom": 1, "formulas": []}'
    % FLAT_FIELDS,
    '{"stages": [3, true], "c": 1}',
    '{"stages": [3, 4], "c": true}',
    '{%s, "c": true}' % FLAT_FIELDS,
    '{"poset": {"elements": ["a", "b"], "leq": []}, "n": true, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a", "b"], "leq": []}, "n": 2, "v": true, "c": 1}',
    '{%s, "c": 1, "d": true}' % FLAT_FIELDS,
    '{%s, "c": 1, "max_dom": "x"}' % FLAT_FIELDS,
    '{%s, "c": 1, "max_dom": 1.5}' % FLAT_FIELDS,
    '{"stages": [3, 4], "c": 1, "max_dom": true}',
    '{%s, "c": 1, "max_support": true}' % FLAT_FIELDS,
    '{%s, "c": 1, "seed": false}' % FLAT_FIELDS,
    '{%s, "c": 1, "posets": true}' % FLAT_FIELDS,
    '{%s, "c": 1, "formulas": ["(mem ord:0 ord:100000)"]}' % FLAT_FIELDS,
    '{%s, "c": 1, "max_dom": -1}' % FLAT_FIELDS,
    '{%s, "c": 1, "max_support": -1}' % FLAT_FIELDS,
    '{%s, "c": 1, "posets": -1}' % FLAT_FIELDS,
    '{"stages": [3, 4], "c": 1, "max_dom": -1}',
    '{"stages": [3, 4], "c": 1, "max_support": -2}',
    '{"stages": [3, 4], "c": 1, "formulas": ["(bogus", "(mem ord:0 ord:100000)"], '
    '"posets": 3, "suites": ["chains"]}',
    pytest.param(b'{"stages": [3, 4], "c": 1, "seed": "\xff"}', id="not-utf-8"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="json-nested-100000"),
    pytest.param('{%s, "c": 1, "formulas": ["%s"]}' % (
        FLAT_FIELDS, "(not " * 400 + "(eq ord:0 ord:0)" + ")" * 400),
        id="not-nested-400"),
    pytest.param('{%s, "c": 1, "formulas": ["%s"]}' % (
        FLAT_FIELDS, "(eq " + "(set " * 400 + "row:a:0" + ")" * 400 + " ord:0)"),
        id="set-nested-400"),
    '{"poset": {"elements": ["a:b", "c"], "leq": []}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a b", "c"], "leq": []}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["a(", "c"], "leq": []}, "n": 2, "v": 2, "c": 1}',
    '{"poset": {"elements": ["", "c"], "leq": []}, "n": 2, "v": 2, "c": 1}',
    pytest.param('{"stages": [3, 800], "c": 1}', id="stages-3-800"),
    pytest.param('{"poset": {"elements": ["a"], "leq": []}, "n": 20000, "v": 1, "c": 1}',
                 id="one-site-20000-fibers"),
    pytest.param('{"poset": {"elements": ["a"], "leq": []}, "n": 3, "v": 5000, "c": 1}',
                 id="least-names-5000-slots"),
    pytest.param('{%s, "c": 1, "posets": 1000000000, "suites": ["embedding"]}'
                 % FLAT_FIELDS, id="posets-1000000000"),
]


def run_text(spec, suite, overrides=None):
    """Run a parsed spec, or the spec parsed from its text."""
    if isinstance(spec, str):
        spec = parse_instance_spec(spec)
    out = io.StringIO()
    code = run_checks(spec, suite, overrides=overrides, out=out)
    return code, out.getvalue().splitlines()


def run(spec, suite, overrides=None):
    code, lines = run_text(spec, suite, overrides)
    return code, [json.loads(line) for line in lines]


class TestParse:
    def test_minimal_valid(self):
        spec = parse_instance_spec(REFERENCE)
        assert spec.kind == "flat"

    def test_trivial_group_exclusion(self):
        with pytest.raises(InvalidInstance):
            parse_instance_spec('{"poset": {"elements": ["a", "b"], "leq": []}, '
                                '"n": 1, "v": 2, "c": 1}')

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInstance):
            parse_instance_spec('{"poset": {"elements": ["a", "b"], '
                                '"leq": [["a", "b"], ["b", "a"]]}, '
                                '"n": 2, "v": 2, "c": 1}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            parse_instance_spec('{"poset": {"elements": ["a"], "leq": []}, '
                                '"n": 3, "v": 1, "c": 1, "bogus": 1}')

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_instance_spec('{"poset": }')
        assert err.value.line == 1 and err.value.column is not None

    def test_staged(self):
        assert parse_instance_spec(STAGED).kind == "staged"

    @pytest.mark.parametrize("value", ['"(eq ord:0 ord:0)"', '["(eq ord:0 ord:0)", 1]'])
    def test_formulas_must_be_a_list_of_strings(self, value):
        # rejected by name at parse time, not as a misleading formula
        # syntax error once the suites start
        with pytest.raises(ParseError, match="'formulas' must be a list of strings"):
            parse_instance_spec('{%s, "c": 1, "formulas": %s}' % (FLAT_FIELDS, value))

    def test_integer_elements_still_accepted(self):
        spec = parse_instance_spec('{"poset": {"elements": [0, 1], "leq": [[0, 1]]}, '
                                   '"n": 2, "v": 2, "c": 1}')
        assert spec.kind == "flat"

    def test_formula_that_does_not_resolve_is_a_parse_error(self):
        # the pool is built at parse, so not even a run that reads no
        # formula starts
        with pytest.raises(ParseError, match="name term 'row:z:9'"):
            parse_instance_spec('{%s, "c": 1, "suites": ["hs"], '
                                '"formulas": ["(eq ord:0 row:z:9)"]}' % FLAT_FIELDS)

    def test_options_resolved_at_parse(self):
        # a JSON null is the default
        spec = parse_instance_spec('{"stages": [3, 4], "c": 1, "max_dom": 1, '
                                   '"seed": null}')
        assert spec.options == {"max_dom": 1, "max_support": 1, "seed": 0, "posets": 0}
        assert spec.suites == cli.STAGED_SUITES and spec.pool == []
        spec = parse_instance_spec(REFERENCE)
        assert spec.options == {"max_dom": 2, "max_support": 1, "seed": 0, "posets": 0}
        assert spec.suites == cli.FLAT_SUITES
        assert [label for label, _ in spec.pool] == [
            label for label, _ in default_formula_pool(spec.family)]

    def test_cell_cap_read_before_any_instance_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an instance past the cell cap")

        monkeypatch.setattr(cli, "build_staged_instance", refuse)
        with pytest.raises(ParseError, match=f"spec has 640009 cells; instances are "
                                             f"capped at {instances.MAX_CELLS} cells"):
            parse_instance_spec('{"stages": [3, 800], "c": 1}')

    def test_least_name_cap_read_before_any_instance_is_built(self, monkeypatch):
        # 15,000 cells, under MAX_CELLS, but 3 x 5000 x 5001 / 2 least-name cells
        def refuse(*args):
            raise AssertionError("built an instance past the least-name cap")

        monkeypatch.setattr(cli, "build_instance", refuse)
        with pytest.raises(ParseError, match=f"least names hold 37507500 cells .*"
                                             f"capped at {instances.MAX_LEAST_CELLS} cells"):
            parse_instance_spec('{"poset": {"elements": ["a"], "leq": []}, '
                                '"n": 3, "v": 5000, "c": 1}')

    def test_posets_cap_named_in_the_error(self):
        # a spec field and a run_checks override meet the same cap
        raw = json.loads(REFERENCE)
        raw["posets"] = cli._MAX_POSETS
        spec = parse_instance_spec(json.dumps(raw))
        assert spec.options["posets"] == cli._MAX_POSETS
        raw["posets"] += 1
        cap = f"capped at {cli._MAX_POSETS} samples"
        with pytest.raises(ParseError, match=cap):
            parse_instance_spec(json.dumps(raw))
        with pytest.raises(ParseError, match=cap):
            run_checks(spec, "embedding", overrides={"posets": cli._MAX_POSETS + 1},
                       out=io.StringIO())

    def test_stages_under_the_cell_cap_parse(self):
        spec = parse_instance_spec('{"stages": [3, 127], "c": 1}')
        assert len(spec.inst.cells) == 9 + 127 ** 2 <= instances.MAX_CELLS

    def test_wrong_types(self):
        with pytest.raises(ParseError):
            parse_instance_spec('{"stages": [3, "x"], "c": 1}')
        with pytest.raises(ParseError):
            parse_instance_spec('{"poset": {"elements": ["a"], "leq": []}, '
                                '"n": "two", "v": 1, "c": 1}')


# JSON values of every shape, small: integers stay in a range where no
# spec builds more than a few dozen cells
_INTS = st.integers(-1, 3)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.just(1.5),
                     st.text("ab01:", max_size=3))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["elements", "leq", "x"]), inner, max_size=2),
    max_leaves=6)
_ELEMENT = st.one_of(_INTS, st.sampled_from(["a", "b", "c"]))
_OPTIONS = ("max_dom", "max_support", "seed", "posets")
_LISTS = {
    "formulas": st.lists(st.sampled_from(["(eq ord:0 ord:0)", "(mem", "row:a:0"]),
                         max_size=2),
    "suites": st.lists(st.sampled_from(["hs", "wisc", "x"]), max_size=2),
}

_KEYS = ("poset", "stages", "n", "v", "c", "d", "formulas", "suites") + _OPTIONS

# well-typed flat and staged objects reach the instance validators
_FLAT = st.fixed_dictionaries(
    {"poset": st.fixed_dictionaries({
        "elements": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True)
        | st.lists(st.integers(0, 2), max_size=3, unique=True)
        | st.lists(_ELEMENT, max_size=3),
        "leq": st.lists(st.lists(_ELEMENT, min_size=2, max_size=2), max_size=2)}),
     "n": _INTS, "v": _INTS, "c": _INTS},
    optional={"d": _INTS, **{k: _INTS for k in _OPTIONS}, **_LISTS})
_STAGED = st.fixed_dictionaries(
    {"stages": st.lists(st.integers(-1, 5), max_size=3), "c": _INTS},
    optional={**{k: _INTS for k in _OPTIONS if k != "posets"},
              "suites": _LISTS["suites"]})


@st.composite
def _one_field_off(draw):
    """A well-typed spec with at most one field (or poset part, or an
    unknown key) set to an arbitrary value, so each type check is met
    with every other field valid."""
    raw = draw(_FLAT | _STAGED)
    where = draw(st.sampled_from((None, "elements", "leq", "bogus") + _KEYS))
    if where in ("elements", "leq"):
        if "poset" in raw:
            raw["poset"][where] = draw(_VALUES)
    elif where is not None:
        raw[where] = draw(_VALUES | st.lists(_SCALARS, max_size=3))
    return raw


# the third kind is any subset of the keys with any values
_SPECS = _one_field_off() | st.fixed_dictionaries(
    {}, optional={key: _VALUES | _INTS for key in _KEYS + ("bogus",)})


@settings(max_examples=500, deadline=None)
@given(raw=_SPECS)
def test_parser_raises_only_engine_errors(raw):
    try:
        parse_instance_spec(json.dumps(raw))
    except EngineError:
        pass


@settings(max_examples=100, deadline=None)
@given(elements=st.lists(st.text("ab1 \t:+()", max_size=3), min_size=2, max_size=2,
                         unique=True))
def test_every_label_of_an_accepted_spec_parses(elements):
    # the site-name rule: a label is one token, read back to its own name
    try:
        spec = parse_instance_spec(json.dumps({
            "poset": {"elements": elements, "leq": []}, "n": 2, "v": 1, "c": 1}))
    except ParseError:
        return
    family = spec.family
    for label, nm in family.members():
        assert forcing._TOKEN.findall(label) == [label]
        assert cli._resolve_name(family, label) is nm


class TestSuites:
    def test_embedding_three_chain_nine_lines(self):
        text = ('{"poset": {"elements": ["a", "b", "c"], '
                '"leq": [["a", "b"], ["b", "c"]]}, "n": 2, "v": 2, "c": 1}')
        code, lines = run(text, "embedding")
        assert code == 0
        assert len(lines) == 9
        assert all(l["verdict"] == "pass" for l in lines)

    def test_swap_count_matches_independent_enumeration(self):
        code, lines = run(REFERENCE, "swap", overrides={"max_dom": 1})
        assert code == 0
        ctx = _context(parse_instance_spec(REFERENCE), {"max_dom": 1})
        inst = ctx["inst"]
        supports = [frozenset()] + [frozenset({p}) for p in inst.pairs]
        expected = 0
        for q in iter_conditions(inst, 1):
            for support in supports:
                for (z, a) in inst.pairs:
                    if (z, a) in support:
                        continue
                    others = [b for b in range(inst.fibers)
                              if b != a and (z, b) not in support
                              and b not in q.touched_fibers(z)]
                    expected += bool(others)
        assert len(lines) == expected

    def test_forcing_oracle_all_pass(self):
        code, lines = run(REFERENCE, "forcing-oracle", overrides={"max_dom": 1})
        assert code == 0
        assert len(lines) == 17 * 21

    def test_inapplicable_suite_fails_loudly(self):
        code, lines = run(REFERENCE, "wisc")
        assert code == 1
        assert len(lines) == 1 and lines[0]["verdict"] == "fail"
        assert "does not apply" in lines[0]["witness"]["error"]

    def test_unknown_suite_fails_loudly(self):
        code, lines = run(REFERENCE, "nonsense")
        assert code == 1 and lines[0]["verdict"] == "fail"

    def test_staged_all(self):
        code, lines = run(STAGED, "all", overrides={"max_dom": 1})
        assert code == 0
        suites = {l["suite"] for l in lines}
        assert suites == {"hs", "normality", "wisc", "chains"}

    def test_flat_all_on_reference_exits_zero(self):
        code, lines = run(REFERENCE, "all")
        assert code == 0
        assert all(l["verdict"] == "pass" for l in lines)
        assert {l["suite"] for l in lines} == {"embedding", "hs", "normality",
                                               "forcing-oracle", "symmetry-lemma",
                                               "swap"}

    def test_custom_formulas(self):
        raw = json.loads(REFERENCE)
        raw["formulas"] = ["(mem ord:0 row:a:0)", "(eq site:a site:b)",
                           "(and (mem ord:0 row:a:0) (not (eq row:a:0 row:a:1)))"]
        code, lines = run(json.dumps(raw), "forcing-oracle", overrides={"max_dom": 0})
        assert code == 0
        assert [l["params"]["formula"] for l in lines] == raw["formulas"]

    def test_region_and_least_terms_resolve(self):
        raw = json.loads(REFERENCE)
        raw["formulas"] = ["(mem row:a:0 region:a+b)", "(eq least:a:0 ord:0)",
                           "(mem (set ord:0) (set (set ord:0) graph))"]
        code, lines = run(json.dumps(raw), "forcing-oracle", overrides={"max_dom": 0})
        assert code == 0 and len(lines) == 3

    def test_integer_sites_in_name_terms(self):
        text = ('{"poset": {"elements": [0, 1], "leq": []}, "n": 2, "v": 2, '
                '"c": 1, "formulas": ["(mem ord:0 row:0:0)", "(eq least:1:0 ord:0)", '
                '"(mem row:0:1 region:0+1)", "(eq site:0 site:1)"]}')
        code, lines = run(text, "forcing-oracle", overrides={"max_dom": 0})
        assert code == 0 and len(lines) == 4
        code, lines = run(text, "hs")
        assert code == 0 and lines and all(l["verdict"] == "pass" for l in lines)

    @pytest.mark.parametrize("term", ["row:a:x", "ord:x", "ord:-1", "ord:100000",
                                      "row:c:0", "site:0", "region:a+c"])
    def test_bad_name_terms_are_parse_errors(self, term):
        raw = json.loads(REFERENCE)
        raw["formulas"] = [f"(mem ord:0 {term})"]
        with pytest.raises(ParseError, match="name term"):
            run(json.dumps(raw), "forcing-oracle")

    def test_formulas_at_the_nesting_bound_run(self):
        depth = forcing._MAX_NESTING - 1
        raw = json.loads(REFERENCE)
        raw["formulas"] = [
            "(not " * depth + "(eq ord:0 ord:0)" + ")" * depth,
            "(eq " + "(set " * depth + "row:a:0" + ")" * depth + " ord:0)"]
        for suite in ("forcing-oracle", "symmetry-lemma"):
            code, lines = run(json.dumps(raw), suite, overrides={"max_dom": 1})
            assert code == 0 and lines

    def test_sampled_posets_logged_with_seed(self):
        raw = json.loads(REFERENCE)
        raw["posets"] = 5
        raw["seed"] = 42
        code, lines = run(json.dumps(raw), "embedding")
        assert code == 0
        sampled = [l for l in lines if "sample" in l["params"]]
        assert len(sampled) == 5
        assert all(l["params"]["seed"] == 42 for l in sampled)


class TestDeterminism:
    def test_reruns_identical_apart_from_elapsed(self):
        _, first = run(REFERENCE, "hs")
        _, second = run(REFERENCE, "hs")
        for line in first + second:
            line.pop("elapsed")
        assert first == second

    def test_import_loads_no_process_pool(self):
        # the CLI runs in one process, so it imports no process pool
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = ("import sys, symext.cli; print(sorted(m for m in sys.modules "
                 "if m.startswith(('multiprocessing', 'concurrent'))))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_import_loads_no_dataclasses_inspect_or_openssl(self):
        # a run pays its imports on each cold start: the records are
        # namedtuples or written by hand, and the spec hash is the builtin
        # SHA-256.
        # -S keeps the environment's site hooks out of the count
        src = str(Path(__file__).parent.parent / "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import symext.cli; "
                 "print(sorted(m for m in ('dataclasses', 'inspect', '_hashlib') "
                 "if m in sys.modules))")
        done = subprocess.run([sys.executable, "-S", "-c", probe, src],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", ["reference.json", "staged.json"])
    def test_instance_hash_is_the_sha256_of_the_description(self, name):
        ctx = _context(parse_instance_spec((SPECS / name).read_text()), {})
        text = json.dumps(ctx["inst"].describe(), sort_keys=True)
        assert ctx["hash"] == hashlib.sha256(text.encode()).hexdigest()[:12]

    def test_serial_lines_written_as_each_unit_finishes(self, monkeypatch):
        out = io.StringIO()
        seen = []

        def gen(ctx):
            for unit in range(4):
                seen.append(out.getvalue().count("\n"))
                yield cli._one(json.dumps({"k": unit}), 0)

        monkeypatch.setitem(cli.SUITES, "fake", (gen, cli._unit))
        monkeypatch.setattr(cli, "FLAT_SUITES", cli.FLAT_SUITES + ("fake",))
        assert run_checks(parse_instance_spec(REFERENCE), "fake", out=out) == 0
        assert seen == [0, 1, 2, 3]
        assert [json.loads(l)["params"] for l in out.getvalue().splitlines()] == [
            {"k": k} for k in range(4)]

    def test_engine_error_keeps_earlier_lines(self, monkeypatch):
        out = io.StringIO()

        def gen(ctx):
            for unit in range(4):
                if unit == 2:
                    raise FiberExhausted("unit 2")
                yield cli._one(json.dumps({"k": unit}), 0)

        monkeypatch.setitem(cli.SUITES, "fake", (gen, cli._unit))
        monkeypatch.setattr(cli, "FLAT_SUITES", cli.FLAT_SUITES + ("fake",))
        with pytest.raises(FiberExhausted):
            run_checks(parse_instance_spec(REFERENCE), "fake", out=out)
        assert len(out.getvalue().splitlines()) == 2

    def test_elapsed_runs_from_the_previous_clock_reading(self, monkeypatch):
        # a scripted clock (in ns) that only moves when the fake suite does
        # work: the generator builds a shared table before its first unit,
        # and each unit spends some microseconds in enumeration and decision
        now, readings = [7_000_000_000], []

        def clock():
            readings.append(now[0])
            return now[0]

        def gen(ctx):
            now[0] += 250_000_000           # a table the first unit needs
            for k in range(4):
                now[0] += 1_000 * k         # enumerating the unit
                now[0] += 3_000 + 500_000 * (k == 2)    # deciding it
                yield cli._one(json.dumps({"k": k}), 0)

        monkeypatch.setattr(cli, "monotonic_ns", clock)
        monkeypatch.setitem(cli.SUITES, "fake", (gen, cli._unit))
        monkeypatch.setattr(cli, "FLAT_SUITES", cli.FLAT_SUITES + ("fake",))
        code, lines = run(REFERENCE, "fake")
        elapsed = [line["elapsed"] for line in lines]
        assert code == 0 and len(readings) == 5
        assert elapsed == [(b - a) / 1e9 for a, b in zip(readings, readings[1:])]
        # the table is charged to the first unit, and the units' times
        # add up to the suite's span
        assert elapsed == [0.250003, 4e-06, 0.000505, 6e-06]
        span = (readings[-1] - readings[0]) // 1000
        assert sum(round(e * 1e6) for e in elapsed) == span

    def test_a_group_holding_a_failure_is_written_a_line_per_unit(self, monkeypatch):
        # a group of four units, the second failing without a witness and
        # the third with one, between a passing and a failing lone unit;
        # the clock is read once per group, and only a group's first line
        # carries its time
        now, readings = [3_000_000_000], []

        def clock():
            readings.append(now[0])
            return now[0]

        def gen(ctx):
            for k, group in enumerate((
                    cli._one('{"k": 0}', 0),
                    ('{"k": 1, "tail": ', ("0}", "1}", "2}", "3}"),
                     {1: True, 2: {"w": 1}}),
                    cli._one('{"k": 2}', {"w": 2}))):
                now[0] += 7_000_000 * (k + 1)
                yield group

        monkeypatch.setattr(cli, "monotonic_ns", clock)
        monkeypatch.setitem(cli.SUITES, "fake", (gen, cli._unit))
        monkeypatch.setattr(cli, "FLAT_SUITES", cli.FLAT_SUITES + ("fake",))
        code, lines = run(REFERENCE, "fake")
        assert code == 1 and len(readings) == 4
        assert [(line["params"], line["verdict"], line.get("witness"))
                for line in lines] == [
            ({"k": 0}, "pass", None),
            ({"k": 1, "tail": 0}, "pass", None),
            ({"k": 1, "tail": 1}, "fail", None),
            ({"k": 1, "tail": 2}, "fail", {"w": 1}),
            ({"k": 1, "tail": 3}, "pass", None),
            ({"k": 2}, "fail", {"w": 2})]
        elapsed = [line["elapsed"] for line in lines]
        assert elapsed == [0.007, 0.014, 0.0, 0.0, 0.0, 0.021]
        span = (readings[-1] - readings[0]) // 1000
        assert sum(round(e * 1e6) for e in elapsed) == span

    def test_elapsed_sums_to_the_span_in_whole_microseconds(self, monkeypatch):
        # readings off a whole microsecond: each is read in whole
        # microseconds, so the lines still add up to the span exactly.
        # Each (permutation, condition) is one group of 21 lines, one per
        # formula, and the clock is read once per group: its first line
        # carries the group's time, the rest 0.0
        ticks = itertools.count(5_000_000_123, 1_499)
        readings = []

        def clock():
            readings.append(next(ticks))
            return readings[-1]

        monkeypatch.setattr(cli, "monotonic_ns", clock)
        code, lines = run(REFERENCE, "symmetry-lemma", {"max_dom": 1})
        assert code == 0 and len(lines) == 4 * 17 * 21
        assert len(readings) - 1 == 4 * 17
        assert [round(line["elapsed"] * 1e6) for line in lines] == [
            b // 1000 - a // 1000 if k == 0 else 0
            for a, b in zip(readings, readings[1:]) for k in range(21)]
        assert (sum(round(line["elapsed"] * 1e6) for line in lines)
                == readings[-1] // 1000 - readings[0] // 1000)

    def test_lines_are_json_objects_with_fixed_fields(self):
        _, lines = run(REFERENCE, "normality")
        for line in lines:
            assert set(line) <= {"suite", "instance", "params", "verdict",
                                 "witness", "elapsed"}
            assert line["verdict"] in ("pass", "fail")


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(REFERENCE)
        code = main(["--spec", str(path), "--suite", "hs"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 15

    def test_closed_stdout_exits_2_without_traceback(self):
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "symext.cli", "--spec", str(SPECS / "staged.json")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith('{"suite": ')
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.startswith("symext: ")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_missing_file(self, capsys):
        assert main(["--spec", "/nonexistent.json"]) == 2
        assert "symext:" in capsys.readouterr().err

    def test_invalid_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"poset": {"elements": ["a"], "leq": []}, "n": 1, "v": 1, "c": 1}')
        assert main(["--spec", str(path)]) == 2

    @pytest.mark.parametrize("width", [11, 200])
    def test_wide_poset_rejected_before_its_order_is_closed(self, width, monkeypatch,
                                                            tmp_path, capsys):
        # closing a wide chain's order costs time quadratic in its
        # relation, so the site cap must be read before Poset builds it
        def refuse(*args):
            raise AssertionError("closed the order of an oversized poset")

        monkeypatch.setattr(cli.Poset, "from_pairs", refuse)
        elements = [f"e{i}" for i in range(width)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "poset": {"elements": elements, "leq": list(map(list, zip(elements,
                                                                      elements[1:])))},
            "n": 2, "v": 1, "c": 1}))
        assert main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"capped at {instances.MAX_SITES} sites" in captured.err

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_spec_exits_2_without_traceback(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("symext: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("suite", ["forcing-oracle", "symmetry-lemma"])
    def test_oversized_forcing_spec_rejected_before_output(self, suite, tmp_path,
                                                           capsys):
        # 14 cells: within the semantic limit, past the recursive one
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "poset": {"elements": ["a", "b"], "leq": []}, "n": 7, "v": 1,
            "c": 1, "suites": ["embedding", suite]}))
        assert main(["--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3^cells" in captured.err

    def test_jobs_other_than_one_rejected(self, tmp_path, capsys):
        # runs are serial: run_checks keeps jobs=1 only, and the CLI has
        # no --jobs option
        with pytest.raises(ValueError):
            run_checks(parse_instance_spec(REFERENCE), "hs", jobs=2)
        path = tmp_path / "ref.json"
        path.write_text(REFERENCE)
        with pytest.raises(SystemExit) as exc:
            main(["--spec", str(path), "--suite", "hs", "--jobs", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "--jobs" in captured.err

    @pytest.mark.parametrize("overrides", [
        {"max_dom": "x"}, {"max_dom": 1.5}, {"max_dom": True}, {"maxdom": 1},
        {"max_support": -1}, {"posets": 1_000_000_000}])
    def test_bad_overrides_are_parse_errors(self, overrides):
        # overrides meet the one check that spec options meet
        out = io.StringIO()
        with pytest.raises(ParseError):
            run_checks(parse_instance_spec((SPECS / "reference.json").read_text()),
                       "all", overrides=overrides, out=out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("flag", ["--max-dom", "--max-support"])
    def test_negative_bound_flags_rejected(self, flag, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(REFERENCE)
        assert main(["--spec", str(path), flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be non-negative" in captured.err

    def test_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        path.write_text(REFERENCE)
        code = main(["--spec", str(path), "--suite", "swap", "--max-dom", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert all(json.loads(l)["verdict"] == "pass" for l in out.splitlines())


class TestDefaultPool:
    def test_at_least_twenty_with_not_and_and(self):
        pool = default_formula_pool(parse_instance_spec(REFERENCE).family)
        labels = [label for label, _ in pool]
        assert len(pool) >= 20
        assert any(l.startswith("(not") for l in labels)
        assert any(l.startswith("(and") for l in labels)


class TestStagedNamePool:
    def test_built_once_per_base_stage(self):
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        ctx = _context(spec, {})
        for base in ctx["inst"].sites:
            pool = ctx["wisc_pool"][base]
            assert ctx["wisc_pool"][base] is pool
            assert pool and all(in_stage(nm, base) for _, nm in pool)


@pytest.mark.parametrize("text", [REFERENCE, STAGED], ids=["flat", "staged"])
def test_parsing_checks_no_symmetry(text, monkeypatch):
    # the hs suite is the one check that the canonical family is
    # hereditarily symmetric
    def refuse(*args):
        raise AssertionError("parsing ran is_hs")

    for module in (symmetry, instances, cli):
        monkeypatch.setattr(module, "is_hs", refuse, raising=False)
    assert parse_instance_spec(text).kind in ("flat", "staged")


# flat specs with 1-3 sites, 2-3 fibers and 1-2 slots, and staged specs
# with stages drawn from [3, 4, 5]; the support cutoff is 1 or 2, capped
# where the instance validator would reject it
_SMALL_FLAT = st.builds(
    lambda k, pairs, n, v, c: {
        "poset": {"elements": list("abc"[:k]),
                  "leq": [list(pair) for pair in pairs if pair[1] in "abc"[:k]]},
        "n": n, "v": v, "c": min(c, k * (n - 1) - 1)},
    st.integers(1, 3), st.lists(st.sampled_from([("a", "b"), ("a", "c"), ("b", "c")]),
                                unique=True),
    st.integers(2, 3), st.integers(1, 2), st.integers(1, 2),
).filter(lambda raw: raw["c"] >= 1)
_SMALL_STAGED = st.builds(
    lambda stages, c: {"stages": stages, "c": min(c, stages[0] - 2)},
    st.lists(st.integers(3, 5), min_size=1, max_size=3, unique=True).map(sorted),
    st.integers(1, 2))


@settings(max_examples=50, deadline=None)
@given(raw=_SMALL_FLAT | _SMALL_STAGED)
def test_accepted_small_specs_have_a_hereditarily_symmetric_family(raw):
    # every canonical name of an accepted spec is hereditarily
    # symmetric, and the hs suite passes each one; parsing checks neither
    spec = parse_instance_spec(json.dumps(raw))
    code, lines = run(spec, "hs")
    assert code == 0 and lines
    assert all(is_hs(spec.inst, nm) for _, nm in spec.family.members())


class TestRunContext:
    """A run's context builds each field the first time a suite reads
    it, and keeps it for that run only; the instance, its family, the
    options and the formula pool belong to the parsed spec."""

    def test_suites_that_read_no_conditions_build_none(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a field no selected suite reads")

        for builder in ("generator_closure", "iter_conditions", "_supports"):
            monkeypatch.setattr(cli, builder, refuse)
        code, lines = run('{"stages": [3, 4], "c": 1, "suites": ["hs", "chains"]}',
                          "all")
        assert code == 0
        assert {l["suite"] for l in lines} == {"hs", "chains"}

    def test_chains_on_a_wide_stage(self):
        # an eager permutation closure took 23 s and 323 MB on this spec
        code, lines = run('{"stages": [3, 16], "c": 1}', "chains")
        for line in lines:
            line.pop("elapsed")
        head = {"suite": "chains", "instance": "4b2cd94425cc"}
        assert code == 0
        assert lines == (
            [dict(head, params={"link": [1, 0]}, verdict="pass")]
            + [dict(head, params={"sample": i, "seed": 0}, verdict="pass")
               for i in range(16)])

    def test_a_failing_line_carries_the_generators_witness(self, monkeypatch):
        # a failing unit whose generator yields True has no witness field,
        # and one that yields a witness object has that object
        chain_family = cli.chain_family
        monkeypatch.setattr(cli, "chain_family",
                            lambda inst: list(reversed(chain_family(inst))))
        code, lines = run(STAGED, "chains")
        link, *samples = lines
        assert code == 1 and link["verdict"] == "fail" and "witness" not in link
        assert all(line["verdict"] == "fail" and list(line["witness"]) == ["bits"]
                   for line in samples)

    def test_forcing_vectors_built_once_per_run(self, monkeypatch):
        # each run indexes its conditions once per mode, and reads each
        # (formula, mode) vector through that index once
        built, read = collections.Counter(), collections.Counter()

        def counted(conds, mode):
            built[mode] += 1
            vector = forcing.forcing_vectors(conds, mode)

            def counted_vector(phi):
                read[phi, mode] += 1
                return vector(phi)
            return counted_vector

        monkeypatch.setattr(cli, "forcing_vectors", counted)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        for runs in (1, 2):
            assert run_text(spec, "all", {"max_dom": 1})[0] == 0
            assert built == {"semantic": runs, "recursive": runs}
            assert len(read) == 80 and set(read.values()) == {runs}

    def test_instance_built_once_per_parse(self, monkeypatch):
        # every run of a spec checks the instance its parse built
        calls, build = [], cli.build_staged_instance

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "build_staged_instance", counted)
        spec = parse_instance_spec(STAGED)
        for overrides in ({}, {"max_dom": 1}):
            assert run(spec, "hs", overrides)[0] == 0
            ctx = _context(spec, overrides)
            assert ctx["inst"] is spec.inst and ctx["family"] is spec.family
        assert calls == [([3, 4], 1)]

    def test_each_parse_builds_its_own_instance(self):
        first, second = parse_instance_spec(STAGED), parse_instance_spec(STAGED)
        assert first.inst == second.inst
        assert first.inst is not second.inst and first.family is not second.family


def _swap_inputs(ctx):
    """(inputs tried, [(condition, support, site, fiber)]): every input of
    the swap suite whose target pair avoids the support, and, in line
    order, those on which the one-shot swap kernel finds its fibers."""
    inst, found, inputs = ctx["inst"], [], 0
    for qi, q in enumerate(ctx["conditions"]):
        for si, support in enumerate(ctx["supports"]):
            for z, a in inst.pairs:
                if (z, a) in support:
                    continue
                inputs += 1
                try:
                    swap_kernel(inst, q, support, z, a)
                except FiberExhausted:
                    continue
                found.append((qi, si, z, a))
    return inputs, found


def _units(groups):
    """A generator's (params text, failing) per line, each group
    (params prefix, tails, fails) flattened."""
    for prefix, tails, fails in groups:
        for i, tail in enumerate(tails):
            yield prefix + tail, fails and fails.get(i, 0)


def _indices(ctx):
    """The index of each condition and of each support, by JSON text."""
    return ({json.dumps(q.to_obj()): qi for qi, q in enumerate(ctx["conditions"])},
            {json.dumps(sorted(map(list, support))): si
             for si, support in enumerate(ctx["supports"])})


class TestPartnerRule:
    """The units a generator emits are exactly the inputs on which its
    kernel finds its fibers, so enumeration and kernel cannot drift."""

    # At max_dom 4 some conditions touch every fiber of a site and have
    # no admissible input, so their plans are empty and have no use
    @pytest.mark.parametrize("max_dom", [1, 4])
    def test_swap_units_are_the_kernel_inputs(self, max_dom):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": max_dom})
        inputs, found = _swap_inputs(ctx)
        assert 0 < len(found) < inputs
        used = [qi for qi, _ in ctx["plans"][ctx["inst"].pairs][1]]
        assert used == sorted({qi for qi, *_ in found})
        assert (len(used) < len(ctx["conditions"])) == (max_dom == 4)
        # a unit's params text names its condition, support and target;
        # every unit passes
        cond_index, support_index = _indices(ctx)
        emitted = []
        for params, failing in _units(_gen_swap(ctx)):
            assert failing == 0
            unit = json.loads(params)
            emitted.append((cond_index[json.dumps(unit["condition"])],
                            support_index[json.dumps(unit["support"])],
                            unit["site"], unit["fiber"]))
        assert emitted == found

    # At max_dom 1 stage headroom leaves every wisc input admissible; at
    # max_dom 2 a condition can fill the swap stage, so the first pool
    # name is also run there.
    @pytest.mark.parametrize("max_dom, names", [(1, None), (2, 1)])
    def test_wisc_units_are_the_kernel_inputs(self, max_dom, names):
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        ctx = _context(spec, {"max_dom": max_dom})
        inst = ctx["inst"]
        found, inputs, pools = set(), 0, {}
        for base in inst.sites:
            pools[base] = ctx["wisc_pool"][base][:names]
            for swap in inst.sites:
                if swap <= base:
                    continue
                for yi, (_, y) in enumerate(pools[base]):
                    for qi, q in enumerate(ctx["conditions"]):
                        for si, support in enumerate(ctx["supports"]):
                            inputs += 1
                            try:
                                wisc_kernel(inst, base, y, swap, q, support)
                            except FiberExhausted:
                                continue
                            found.add((base, swap, yi, qi, si))
        assert found and (max_dom == 1 or len(found) < inputs)
        # a unit's params text names its stages, its pool entry by a label
        # no other entry of the pool has, its condition and its support;
        # every unit passes, so none carries a failing step
        cond_index, support_index = _indices(ctx)
        emitted = set()
        for params, failing in _units(_gen_wisc(ctx)):
            assert failing == 0
            unit = json.loads(params)
            base = unit["base_stage"]
            labels = [label for label, _ in ctx["wisc_pool"][base]]
            assert labels.count(unit["name"]) == 1
            yi = labels.index(unit["name"])
            if yi < len(pools[base]):
                emitted.add((base, unit["swap_stage"], yi,
                             cond_index[json.dumps(unit["condition"])],
                             support_index[json.dumps(unit["support"])]))
        assert emitted == found


def _fail_every_merge(p, q):
    return Compat(False, conflict=p.items[0][0] if p.items else None)


def _conflict_everywhere(p, q):
    return p.inst.cells[0]


class _FirstCellBlindSpace(forcing._FilterSpace):
    """A semantic space in which no filter contains a condition setting
    the instance's first cell, so such a condition forces every formula:
    semantic mode then disagrees with recursive mode, and is no longer
    invariant under the permutations that move that cell."""

    def ext(self, cond):
        if any(cell == self.inst.cells[0] for cell, _ in cond.items):
            return 0
        return super().ext(cond)


def _blind_semantic_mode(monkeypatch):
    spaces = {}

    def blind_space(inst):
        if inst not in spaces:
            spaces[inst] = _FirstCellBlindSpace(inst)
        return spaces[inst]

    monkeypatch.setattr(forcing, "_filter_space", blind_space)


def _oracle_units(ctx):
    """(condition, formula) of each forcing-oracle line, in line order."""
    return list(itertools.product(range(len(ctx["conditions"])),
                                  range(len(ctx["pool"]))))


def _symmetry_units(ctx):
    """(permutation, condition, formula) of each symmetry-lemma line."""
    return list(itertools.product(range(len(ctx["perms"])), range(len(ctx["conditions"])),
                                  range(len(ctx["pool"]))))


def _wisc_steps(ctx, swap):
    """(condition, support, swap step) of each wisc swap step at the swap
    stage, in line order."""
    return [(qi, si, step) for qi, si, _, _, step in _flat_steps(
        ctx["inst"], ctx["conditions"], ctx["supports"], ((swap, None),))]


def _wisc_units(ctx):
    """(base stage, swap stage, label, name, condition, support, swap step)
    of each wisc line: every name of the base stage's pool with every
    swap step of each later stage."""
    sites = ctx["inst"].sites
    return [(base, swap, label, y, qi, si, step)
            for base in sites for swap in sites if swap > base
            for label, y in ctx["wisc_pool"][base]
            for qi, si, step in _wisc_steps(ctx, swap)]


def _normality_units(ctx):
    """(permutation, support) of each conjugation line, in line order, and
    the member labels of each assembly line after them."""
    conjugations = list(itertools.product(ctx["perms"], ctx["supports"]))
    bundles = [list(labels) for k in (1, 2)
               for labels in itertools.combinations(ctx["members"], k)]
    return conjugations, bundles


class TestHoistedPath:
    """The CLI builds permutation images, swap steps and JSON text once
    per index; every line must still say what the public one-shot checks
    say about its unit."""

    def test_symmetry_lines_match_the_one_shot_check(self):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "symmetry-lemma", overrides={"max_dom": 1})
        units = _symmetry_units(ctx)
        assert code == 0 and len(lines) == len(units) == 4 * 17 * 21
        for line, (pii, ci, fi) in zip(lines, units):
            perm, p = ctx["perms"][pii], ctx["conditions"][ci]
            label, phi = ctx["pool"][fi]
            report = symmetry_lemma_check(perm, p, phi)
            assert line["verdict"] == ("pass" if report.equal else "fail")
            assert line["params"] == {
                "permutation": [[list(x) for x in c] for c in perm.cycles()],
                "condition": p.to_obj(), "formula": label}

    def test_oracle_lines_match_the_one_shot_check(self):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "forcing-oracle", overrides={"max_dom": 1})
        units = _oracle_units(ctx)
        assert code == 0 and len(lines) == len(units) == 17 * 21
        for line, (ci, fi) in zip(lines, units):
            p = ctx["conditions"][ci]
            label, phi = ctx["pool"][fi]
            ok = forces(p, phi, "recursive") == forces(p, phi, "semantic")
            assert line["verdict"] == ("pass" if ok else "fail")
            assert line["params"] == {"condition": p.to_obj(),
                                      "formula": label}

    def test_failing_symmetry_lines_match_the_one_shot_check(self, monkeypatch):
        _blind_semantic_mode(monkeypatch)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "symmetry-lemma", overrides={"max_dom": 1})
        units = _symmetry_units(ctx)
        assert code == 1 and len(lines) == len(units)
        separated = 0
        for line, (pii, ci, fi) in zip(lines, units):
            report = symmetry_lemma_check(ctx["perms"][pii], ctx["conditions"][ci],
                                          ctx["pool"][fi][1])
            assert line["verdict"] == ("pass" if report.equal else "fail")
            assert line.get("witness") == json.loads(json.dumps(report.witness))
            separated += "separating_filter" in line.get("witness", {})
        assert 0 < separated < sum(line["verdict"] == "fail" for line in lines)
        assert any(line["verdict"] == "pass" for line in lines)

    def test_failing_oracle_lines_match_the_one_shot_check(self, monkeypatch):
        _blind_semantic_mode(monkeypatch)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "forcing-oracle", overrides={"max_dom": 1})
        units = _oracle_units(ctx)
        assert code == 1 and len(lines) == len(units)
        for line, (ci, fi) in zip(lines, units):
            p, phi = ctx["conditions"][ci], ctx["pool"][fi][1]
            rec, sem = forces(p, phi, "recursive"), forces(p, phi, "semantic")
            assert line["verdict"] == ("pass" if rec == sem else "fail")
            assert line.get("witness") == (
                None if rec == sem else {"recursive": rec, "semantic": sem})
        assert any(line["verdict"] == "pass" for line in lines)

    @pytest.mark.parametrize("text, failing", [
        ((SPECS / "reference.json").read_text(), 0),
        ((SPECS / "staged.json").read_text(), 0),
        ('{"stages": [3, 4, 5], "c": 1}', 0),
        ((SPECS / "staged.json").read_text(), 234)],
        ids=["reference", "staged", "stages-3-4-5", "staged-conjugate-is-g"])
    def test_normality_lines_match_the_one_shot_checks(self, text, failing,
                                                       monkeypatch):
        # the generator conjugates each generator once per permutation; the
        # one-shot checks run on a second parse of the spec, in reverse line
        # order, so a line that read a conjugate kept from another
        # permutation, or any other memo of the run, would differ.  With
        # failing lines, conjugation is the identity, and each line's
        # witness must be the one-shot check's
        if failing:
            monkeypatch.setattr(symmetry, "conjugate", lambda pi, g: g)
        code, lines = run(text, "normality")
        spec = parse_instance_spec(text)
        ctx, inst = _context(spec, {}), spec.inst
        conjugations, bundles = _normality_units(ctx)
        assert len(lines) == len(conjugations) + len(bundles)
        assert (code, sum(line["verdict"] == "fail" for line in lines)) == (
            int(failing > 0), failing)
        for line, (perm, support) in reversed(list(zip(lines, conjugations))):
            report = conjugation_check(inst, perm, support)
            assert line["verdict"] == ("pass" if report.ok else "fail")
            assert line["params"] == {
                "permutation": perm.to_obj(), "support": sorted(map(list, support)),
                "image": sorted(map(list, report.support_image))}
            assert line.get("witness") == (
                None if report.ok else {"witness": report.witness.to_obj()})
        for line, labels in zip(lines[len(conjugations):], bundles):
            report = assemble_sequence(inst, [ctx["names"][label] for label in labels])
            ok = report.hs or not report.certified
            assert line["verdict"] == ("pass" if ok else "fail")
            assert line["params"] == {"members": labels,
                                      "hereditarily_symmetric": report.hs,
                                      "certified": report.certified}

    def test_swap_lines_match_the_one_shot_kernel(self):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "swap", overrides={"max_dom": 1})
        units = _swap_inputs(ctx)[1]
        assert code == 0 and len(lines) == len(units) > 0
        for line, (qi, si, z, a) in zip(lines, units):
            q, support = ctx["conditions"][qi], ctx["supports"][si]
            report = swap_kernel(ctx["inst"], q, support, z, a)
            assert line["verdict"] == ("pass" if report.verdict else "fail")
            assert line["params"] == {
                "condition": q.to_obj(),
                "support": sorted(map(list, support)),
                "site": z, "fiber": a, "partner": report.chosen["partner"]}

    def test_failing_swap_witness_matches_the_one_shot_kernel(self, monkeypatch):
        # the verdict reads the agreement test, the witness the merge
        monkeypatch.setattr(kernels, "_conflict", _conflict_everywhere)
        monkeypatch.setattr(kernels, "compatible", _fail_every_merge)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "swap", overrides={"max_dom": 1})
        units = _swap_inputs(ctx)[1]
        assert code == 1 and len(lines) == len(units) > 0
        for line, (qi, si, z, a) in zip(lines, units):
            report = swap_kernel(ctx["inst"], ctx["conditions"][qi],
                                 ctx["supports"][si], z, a)
            assert line["verdict"] == "fail" and not report.verdict
            assert line["witness"] == json.loads(json.dumps(report.to_obj()))
            assert line["witness"]["witness"]["merged"] is None

    @pytest.mark.parametrize("patches, max_dom, failing", [
        ([], 3, 0),
        ([(kernels, "partner", _partner_ignores_support)], 1, 52),
        (_DROPPED_CELL, 1, 156),
    ], ids=["clean", "partner-ignores-support", "act-drops-a-moved-cell"])
    def test_swap_run_calls_the_kernel_once_per_distinct_step(self, patches, max_dom,
                                                              failing, monkeypatch):
        # the verdict reads only the step, so the kernel decides each
        # distinct step once; a failing unit reruns it for the witness
        for module, attr, replacement in patches:
            monkeypatch.setattr(module, attr, replacement)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["step"])
            return swap_kernel(*args, **kwargs)

        monkeypatch.setattr(cli, "swap_kernel", counted)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        code, lines = run(spec, "swap", overrides={"max_dom": max_dom})
        ctx = _context(spec, {"max_dom": max_dom})
        inst = ctx["inst"]
        steps = {step for *_, step in _flat_steps(inst, ctx["conditions"],
                                                  ctx["supports"], inst.pairs)}
        assert sum(line["verdict"] == "fail" for line in lines) == failing
        assert code == (1 if failing else 0)
        assert set(calls) == steps
        assert len(calls) == len(steps) + failing
        if not patches:
            assert len(calls) == 12 and len(lines) == 2796

    @pytest.mark.parametrize("key", [wisc_key, lambda step: step], ids=["wisc_key", "step"])
    @pytest.mark.parametrize("name, max_dom", [("staged.json", None), ("reference.json", 3)])
    def test_kernel_inputs_are_each_keys_first_step(self, name, max_dom, key,
                                                    monkeypatch):
        # _plan_groups scans only the distinct plans; a scan of every step
        # in line order finds the inputs it runs the kernel on
        spec = parse_instance_spec((SPECS / name).read_text())
        ctx = _context(spec, {} if max_dom is None else {"max_dom": max_dom})
        inst, conditions, supports = ctx["inst"], ctx["conditions"], ctx["supports"]
        staged = inst.kind == "staged"
        targets = ((1, None),) if staged else inst.pairs
        first = {}
        for qi, si, z, a, step in _flat_steps(inst, conditions, supports, targets):
            first.setdefault(key(step), (conditions[qi], supports[si], z, a, step))
        calls = []

        def swap(inst, q, support, z, a, step):
            calls.append((q, support, z, a, step))
            return swap_kernel(inst, q, support, z, a, step=step)

        def wisc(inst, base, y, stage, q, support, step):
            calls.append((q, support, stage, None, step))
            return wisc_kernel(inst, base, y, stage, q, support, step)

        monkeypatch.setattr(cli, "swap_kernel", swap)
        monkeypatch.setattr(cli, "wisc_kernel", wisc)
        y = staged and ctx["wisc_pool"][0][0][1]
        plans = ctx["plans"][targets]
        groups = list(_plan_groups(
            ctx["cond_text"], plans, [[""] * len(plan) for plan in plans[0]], key,
            lambda qi, si, z, a, step: cli.wisc_kernel(
                inst, 0, y, z, conditions[qi], supports[si], step) if staged
            else cli.swap_kernel(inst, conditions[qi], supports[si], z, a, step=step),
            ""))
        # a passing run: the kernel runs only on each key's first input
        assert len(groups) == len(plans[1]) and not any(fails for *_, fails in groups)
        assert len(calls) > 1 and calls == list(first.values())

    def test_swap_run_finds_touched_fibers_once_per_condition_and_site(
            self, monkeypatch):
        # kernels.swap_plans finds them to choose the fibers, and the
        # kernel takes its step, so no kernel call finds them again
        found, touched = collections.Counter(), Condition.touched_fibers

        def counted(q, site):
            found[q, site] += 1
            return touched(q, site)

        monkeypatch.setattr(Condition, "touched_fibers", counted)
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        code, lines = run(spec, "swap", overrides={"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        inst = ctx["inst"]
        assert code == 0 and len(lines) > len(found)
        assert set(found) == {(q, z) for q in ctx["conditions"] for z in inst.sites}
        assert set(found.values()) == {1}

    def test_wisc_lines_match_the_one_shot_kernel(self):
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "wisc", overrides={"max_dom": 1})
        units = _wisc_units(ctx)
        assert code == 0 and len(lines) == len(units) > 0
        for line, (base, swap, label, y, qi, si, step) in zip(lines, units):
            q, support = ctx["conditions"][qi], ctx["supports"][si]
            report = wisc_kernel(ctx["inst"], base, y, swap, q, support)
            assert step == swap_step(ctx["inst"], q, support, swap)
            assert line["verdict"] == ("pass" if report.verdict else "fail")
            assert report.chosen == {"first_fiber": step.fiber,
                                     "second_fiber": step.mate}
            assert line["params"] == {
                "base_stage": base, "swap_stage": swap, "name": label,
                "condition": q.to_obj(),
                "support": sorted(map(list, support))}

    def test_mixed_wisc_lines_match_the_one_shot_kernel(self, monkeypatch):
        # the fault makes every step whose condition sets a cell of stage
        # 1, fiber 0 incompatible, so one transposition has passing and
        # failing lines: each line must still read its own step's flags
        monkeypatch.setattr(kernels, "_conflict", _conflict_at_stage_1_fiber_0)
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "wisc", overrides={"max_dom": 1})
        units = _wisc_units(ctx)
        assert code == 1 and len(lines) == len(units) == 2448
        verdicts = collections.defaultdict(set)
        for line, (base, swap, label, y, qi, si, step) in zip(lines, units):
            report = wisc_kernel(ctx["inst"], base, y, swap, ctx["conditions"][qi],
                                 ctx["supports"][si])
            assert line["verdict"] == ("pass" if report.verdict else "fail")
            assert line.get("witness") == (
                None if report.verdict else json.loads(json.dumps(report.to_obj())))
            verdicts[label, step.transposition].add(report.verdict)
        assert sum(line["verdict"] == "fail" for line in lines) == 384
        assert {True, False} in verdicts.values()

    def test_wisc_run_calls_the_kernel_once_per_step_group(self, monkeypatch):
        # a step group is the steps of one swap stage with one
        # kernels.wisc_key, (transposition, in_stabilizer, compatible):
        # the kernel's verdict reads nothing else of a step
        calls = collections.Counter()

        def counted(staged, base, y, swap, *args, **kwargs):
            calls[base, y, swap] += 1
            return wisc_kernel(staged, base, y, swap, *args, **kwargs)

        monkeypatch.setattr(cli, "wisc_kernel", counted)
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        code, lines = run(spec, "wisc", overrides={"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        sites = ctx["inst"].sites
        expected = {(base, y, swap): len({(step.transposition, step.in_stabilizer,
                                           step.compatible)
                                          for *_, step in _wisc_steps(ctx, swap)})
                    for base in sites for swap in sites if swap > base
                    for _, y in ctx["wisc_pool"][base]}
        assert code == 0 and len(lines) == 2448
        assert calls == expected
        assert sum(calls.values()) == 30

    def test_failing_wisc_witness_matches_the_one_shot_kernel(self, monkeypatch):
        # the verdict reads the agreement test, the witness the merge
        monkeypatch.setattr(kernels, "_conflict", _conflict_everywhere)
        monkeypatch.setattr(kernels, "compatible", _fail_every_merge)
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        ctx = _context(spec, {"max_dom": 1})
        code, lines = run(spec, "wisc", overrides={"max_dom": 1})
        units = _wisc_units(ctx)
        assert code == 1 and len(lines) == len(units) > 0
        for line, (base, swap, _, y, qi, si, _) in zip(lines, units):
            report = wisc_kernel(ctx["inst"], base, y, swap, ctx["conditions"][qi],
                                 ctx["supports"][si])
            assert line["verdict"] == "fail" and not report.verdict
            assert line["witness"] == json.loads(json.dumps(report.to_obj()))
            assert line["witness"]["witness"]["merged"] is None


def _stripped(line):
    return line[:line.rindex(', "elapsed": ')] + "}"


def _assert_only_these_fail(clean, doctored, failing, witness):
    """clean and doctored are the (exit status, lines) of one suite's run
    before and after a fault: the lines at the indices in failing fail,
    each with witness(index) and its clean params, and every other line's
    text with elapsed stripped is the clean one."""
    (clean_code, before), (code, after) = clean, doctored
    assert clean_code == 0 and code == 1 and failing
    assert len(after) == len(before)
    for i, (was, line) in enumerate(zip(before, after)):
        if i in failing:
            obj = json.loads(line)
            assert obj["verdict"] == "fail" and obj["witness"] == witness(i)
            assert obj["params"] == json.loads(was)["params"]
        else:
            assert _stripped(line) == _stripped(was)


class TestBlocks:
    """A group of lines that all pass is written with one join; a group
    holding one failing unit is written a line per unit, so exactly the
    failing units fail, each with its witness, and no other line moves."""

    def test_one_failed_swap_step_fails_only_its_lines(self, monkeypatch):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        clean = run_text(spec, "swap", {"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        inst, conditions, supports = ctx["inst"], ctx["conditions"], ctx["supports"]
        units = _flat_steps(inst, conditions, supports, inst.pairs)
        target = units[len(units) // 2][-1]
        # the failed step shares a plan with passing steps
        plans = [[step for *_, step in plan] for plan in ctx["plans"][inst.pairs][0]]
        assert any(target in steps and len(set(steps)) > 1 for steps in plans)

        def doctored(*args, step, **kwargs):
            report = swap_kernel(*args, step=step, **kwargs)
            report.verdict = report.verdict and step != target
            return report

        monkeypatch.setattr(cli, "swap_kernel", doctored)

        def witness(i):
            qi, si, z, a, step = units[i]
            return json.loads(json.dumps(doctored(
                inst, conditions[qi], supports[si], z, a, step=step).to_obj()))

        failing = {i for i, unit in enumerate(units) if unit[-1] == target}
        _assert_only_these_fail(clean, run_text(spec, "swap", {"max_dom": 1}),
                                failing, witness)

    def test_one_failed_wisc_key_fails_only_its_lines(self, monkeypatch):
        spec = parse_instance_spec((SPECS / "staged.json").read_text())
        clean = run_text(spec, "wisc", {"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        units = _wisc_units(ctx)
        target = wisc_key(units[len(units) // 3][-1])
        assert len({wisc_key(unit[-1]) for unit in units}) > 1

        def doctored(*args):
            report = wisc_kernel(*args)
            report.verdict = report.verdict and wisc_key(args[-1]) != target
            return report

        monkeypatch.setattr(cli, "wisc_kernel", doctored)

        def witness(i):
            base, swap, _, y, qi, si, step = units[i]
            return json.loads(json.dumps(doctored(
                ctx["inst"], base, y, swap, ctx["conditions"][qi],
                ctx["supports"][si], step).to_obj()))

        failing = {i for i, unit in enumerate(units) if wisc_key(unit[-1]) == target}
        _assert_only_these_fail(clean, run_text(spec, "wisc", {"max_dom": 1}),
                                failing, witness)

    def test_one_forced_lemma_bit_fails_only_its_line(self, monkeypatch):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        clean = run_text(spec, "symmetry-lemma", {"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        units = _symmetry_units(ctx)
        index = len(units) // 2 + 5
        pii, ci, fi = units[index]
        perm, q, phi = ctx["perms"][pii], ctx["conditions"][ci], ctx["pool"][fi][1]
        forced = {"condition": q.to_obj(), "forced": True}
        lemma_fail, check = cli._lemma_fail, cli.symmetry_lemma_check

        def fail_mask(vector, pi, image, psi):
            mask = lemma_fail(vector, pi, image, psi)
            return mask | 1 << ci if (pi, psi) == (perm, phi) else mask

        def one_shot(pi, p, psi):
            report = check(pi, p, psi)
            return (report._replace(equal=False, witness=forced)
                    if (pi, p, psi) == (perm, q, phi) else report)

        monkeypatch.setattr(cli, "_lemma_fail", fail_mask)
        monkeypatch.setattr(cli, "symmetry_lemma_check", one_shot)
        _assert_only_these_fail(
            clean, run_text(spec, "symmetry-lemma", {"max_dom": 1}), {index},
            lambda i: forced)

    def test_one_forced_oracle_bit_fails_only_its_line(self, monkeypatch):
        spec = parse_instance_spec((SPECS / "reference.json").read_text())
        clean = run_text(spec, "forcing-oracle", {"max_dom": 1})
        ctx = _context(spec, {"max_dom": 1})
        units = _oracle_units(ctx)
        index = len(units) // 2 + 3
        ci, fi = units[index]
        phi, vectors_ = ctx["pool"][fi][1], cli.forcing_vectors
        semantic = bool(ctx["vector"][phi, "semantic"] >> ci & 1)

        def vectors(conds, mode):
            vector = vectors_(conds, mode)
            flip = 1 << ci if mode == "recursive" else 0
            return lambda psi: vector(psi) ^ flip if psi == phi else vector(psi)

        monkeypatch.setattr(cli, "forcing_vectors", vectors)
        _assert_only_these_fail(
            clean, run_text(spec, "forcing-oracle", {"max_dom": 1}), {index},
            lambda i: {"recursive": not semantic, "semantic": semantic})


class TestEncoding:
    """Lines are assembled from JSON fragments; each must be exactly the
    text json.dumps gives for the object it encodes."""

    @staticmethod
    def assert_canonical(lines):
        assert lines
        for line in lines:
            assert line == json.dumps(json.loads(line))

    @pytest.mark.parametrize("name", ["reference.json", "staged.json"])
    def test_shipped_specs(self, name):
        code, lines = run_text((SPECS / name).read_text(), "all", {"max_dom": 1})
        assert code == 0
        self.assert_canonical(lines)

    def test_failing_lines(self, monkeypatch):
        monkeypatch.setattr(kernels, "_conflict", _conflict_everywhere)
        monkeypatch.setattr(kernels, "compatible", _fail_every_merge)
        code, lines = run_text(STAGED, "wisc", {"max_dom": 0})
        assert code == 1 and all('"witness": ' in line for line in lines)
        self.assert_canonical(lines)

    def test_witnesses_encode_like_params(self, monkeypatch):
        # a failing line writes its conditions and permutations in the
        # form params uses, and each reads back to the object it encodes
        _blind_semantic_mode(monkeypatch)
        spec = parse_instance_spec(REFERENCE)
        inst = spec.inst
        code, lines = run(spec, "symmetry-lemma", overrides={"max_dom": 1})
        failing = [line for line in lines if line["verdict"] == "fail"]
        assert code == 1 and failing
        for line in failing:
            params, witness = line["params"], line["witness"]
            assert witness["condition"] == params["condition"]
            pi = FiberPermutation.from_cycles(inst, params["permutation"])
            p = Condition(inst, [(cell[:3], cell[3]) for cell in params["condition"]])
            assert witness["relabeled"] == symmetry.act_condition(pi, p).to_obj()

        # conjugation that forgets pi^-1 gives non-generators as witnesses
        monkeypatch.setattr(symmetry, "conjugate", lambda pi, g: pi * g)
        code, lines = run(spec, "normality")
        failing = [line for line in lines if line["verdict"] == "fail"]
        assert code == 1 and failing
        for line in failing:
            cycles = line["witness"]["witness"]
            assert FiberPermutation.from_cycles(inst, cycles).to_obj() == cycles

    @pytest.mark.parametrize("text, max_dom", [
        ((SPECS / "reference.json").read_text(), 8),
        ((SPECS / "staged.json").read_text(), 2),
        ('{"poset": {"elements": [0, 1, 2], "leq": [[0, 1]]}, "n": 2, "v": 1, "c": 1}', 6),
        # site names JSON writes with escapes
        ('{"poset": {"elements": ["\u00e9t\u00e9", "q\\"x"], "leq": []}, '
         '"n": 2, "v": 1, "c": 1}', 4),
    ], ids=["reference", "staged", "integer-sites", "escaped-sites"])
    def test_condition_text_joins_cell_fragments(self, text, max_dom):
        ctx = _context(parse_instance_spec(text), {"max_dom": max_dom})
        conds = ctx["conditions"]
        assert len(conds) > 1 and max(len(p) for p in conds) == max_dom
        for ci, p in enumerate(conds):
            assert ctx["cond_text"][ci] == json.dumps(p.to_obj())

    @pytest.mark.parametrize("suite", ["nonsense", "wisc"])
    def test_unknown_and_inapplicable_suite_lines(self, suite):
        code, lines = run_text(REFERENCE, suite)
        assert code == 1 and len(lines) == 1
        self.assert_canonical(lines)
