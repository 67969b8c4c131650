"""Batch front end: parse instance spec files, run named check suites,
emit one JSON report line per check unit.

Spec files are JSON.  A flat instance:

    {"poset": {"elements": ["a", "b"], "leq": []},
     "n": 2, "v": 2, "c": 1, "d": 8}

A staged instance:

    {"stages": [3, 4], "c": 1}

Optional keys: "max_dom", "max_support", "seed", "suites" (default
selection for --suite all), and on a flat spec only "posets" (sampled
posets for the embedding suite) and "formulas" (prefix-syntax strings
replacing the default pool).  Unknown keys are rejected, as are an empty
"suites" or "formulas" list, "posets" above _MAX_POSETS, a string poset
element that cannot be written in a name term, an instance of more than
instances.MAX_CELLS cells, and a flat spec whose least names hold more
than instances.MAX_LEAST_CELLS cells.  Either pool is text read by
forcing.parse_formula, so a formula's label is its text.

Each check unit emits one JSON object per line with the fields suite,
instance (a content hash), params, verdict, witness (failures only) and
elapsed; the exit status is 0 exactly when every verdict passes.  Reruns
of the same spec are byte-identical apart from the elapsed fields.

Each suite's units are generated lazily, and a run writes each line as
its unit finishes, so its memory does not grow with the unit count.
An engine error in the middle of a suite leaves that suite's earlier
lines on stdout; the exit status is still 2.

parse_instance_spec builds, once, everything a run reads from the spec:
the instance and its canonical family, the options with their defaults,
the suite selection and, on a flat spec, the formula pool, so a formula
that does not resolve is a spec error.  It does not check that the
family is hereditarily symmetric; the hs suite does, one line per name.
Each run_checks call reads the spec through a fresh context (see
_context), whose every other field lives for that run only and is built
on its first read, so a suite that never reads the conditions,
permutations or supports never enumerates them.

The work a suite's units share is done once per index, not once per
unit: the JSON text of each condition, support and label, the image of
each condition and formula under each permutation, the forcing verdicts
of each formula over all conditions as one bit vector per mode, and the
swap plans of each set of targets (kernels.swap_plans: each distinct
plan once, and the plan index each condition uses).  The swap and wisc
suites share a kernel's verdict by one rule (_plan_groups): the kernel
runs once per key of what its verdict reads of a step (the step itself,
or kernels.wisc_key), on the key's first input in line order, and a line
reads its verdict off its plan's failing entries.  One unit rule serves
every suite: its generator decides each unit and yields groups of units,
each a params prefix, the tails of its lines' params and the failing
fields of its failing units (see the suites comment); where a suite
reads a verdict off a fail mask or a shared verdict, only a failing unit
runs its one-shot check for the witness.  A group is the formulas at one
condition, or at one permutation and condition, the steps of one
condition's swap plan, or a lone unit.  The run writes a group whose
units all pass with one join, and any other group a line per unit.  The
clock is read once per group, so a group's elapsed time runs from the
end of the previous group's run and includes its enumeration and any
shared table it is the first to need; its first line carries that time
and its other lines read 0.0.  With elapsed stripped, stdout is
byte-identical to framing every line alone.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import re
import sys
from collections import namedtuple
from operator import itemgetter, or_
from time import monotonic_ns

try:  # the builtin SHA-256 (hashlib would load OpenSSL for one digest)
    from _sha256 import sha256          # CPython 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256        # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

from .core import GenericFilter, Poset, iter_conditions
from .errors import EngineError, ParseError
from .forcing import (act_formula, check_size, forcing_vectors, lemma_disagreement,
                      parse_formula, symmetry_lemma_check)
from .instances import (MAX_CELLS, MAX_LEAST_CELLS, MAX_SITES, build_instance,
                        build_staged_instance, chain_family, downset_embedding,
                        in_stage, random_poset)
from .kernels import _support_obj, swap_kernel, swap_plans, wisc_kernel, wisc_key
from .names import check_name, interpret, ordinal, pair_name, set_name
from .symmetry import (act_condition, assemble_sequence, conjugation_check,
                       fix_generators, generator_closure, infer_min_support,
                       is_hs)

_FLAT_KEYS = {"poset", "n", "v", "c", "d",
              "max_dom", "max_support", "seed", "posets", "formulas", "suites"}
_STAGED_KEYS = {"stages", "c", "max_dom", "max_support", "seed", "suites"}
_POSET_KEYS = {"elements", "leq"}
_INT_OPTIONS = ("max_dom", "max_support", "seed", "posets")
# the largest k of an ord:k name term: four ord:64 formulas take 3 s on
# the reference spec, one ord:1000 formula 20 s on a 1-site spec
_MAX_ORDINAL = 64
# the most sampled posets of the embedding suite: 10,000 samples run in
# about 0.9 s and 20 MB on the reference spec (2 CPUs), at about 11,000
# samples per second whatever the instance
_MAX_POSETS = 10_000
# a string site is written bare in labels and name terms (row:a:0,
# region:a+b), so it must be one token without a separator
_SITE_TEXT = re.compile(r"[^\s():+]+")

FLAT_SUITES = ("embedding", "hs", "normality", "forcing-oracle",
               "symmetry-lemma", "swap")
STAGED_SUITES = ("hs", "normality", "wisc", "chains")


class InstanceSpec(namedtuple("InstanceSpec",
                              ("inst", "family", "options", "suites", "pool"))):
    """A parsed spec: everything a run reads from it, built once.  inst is
    the Instance and family its NameFamily, unchecked (the hs suite checks
    it); options maps each of _INT_OPTIONS to its value, the default filled
    in; suites is the selection --suite all runs; pool holds the (label,
    formula) pairs, empty on a staged spec.  Two specs compare by value."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        """The instance's kind, "flat" or "staged"."""
        return self.inst.kind


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_poset(poset) -> None:
    """Types and the site cap; the order axioms are left to Poset."""
    if not isinstance(poset, dict) or set(poset) - _POSET_KEYS:
        raise ParseError("poset must be an object with 'elements' and 'leq'")
    elements = poset.get("elements", [])
    if not (_is_str_list(elements)
            or isinstance(elements, list) and all(_is_int(e) for e in elements)):
        raise ParseError("poset 'elements' must be a list of strings "
                         "or a list of integers")
    if len(elements) > MAX_SITES:
        raise ParseError(f"poset has {len(elements)} elements; "
                         f"instances are capped at {MAX_SITES} sites")
    for e in elements:
        if isinstance(e, str) and not _SITE_TEXT.fullmatch(e):
            raise ParseError(f"poset element {e!r} cannot be written in a name term "
                             "(it is empty, or has whitespace, '(', ')', ':' or '+')")
    leq = poset.get("leq", [])
    if not isinstance(leq, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(e, str) or _is_int(e) for e in pair)
            for pair in leq):
        raise ParseError("poset 'leq' must be a list of [element, element] pairs")


def _check_options(options: dict) -> dict:
    """The options that are set (None leaves one unset), each a known key
    and an integer; a bound or sample count must not be negative, since
    the suites reading it would silently run no units, and the sample
    count must not pass _MAX_POSETS."""
    options = {key: value for key, value in options.items() if value is not None}
    for key, value in options.items():
        if key not in _INT_OPTIONS:
            raise ParseError(f"unknown option {key!r}")
        if not _is_int(value):
            raise ParseError(f"option {key!r} must be an integer")
        if key != "seed" and value < 0:
            raise ParseError(f"{key!r} must be non-negative, got {value}")
        if key == "posets" and value > _MAX_POSETS:
            raise ParseError(f"'posets' is capped at {_MAX_POSETS} samples, got {value}")
    return options


def _check_cells(raw: dict) -> None:
    """The cell caps, read off the spec's counts before anything is built."""
    if "stages" in raw:
        cells, least = sum(max(s, 0) ** 2 for s in raw["stages"]), 0
    else:
        rows = len(raw["poset"].get("elements", [])) * max(raw["n"], 0)
        v = max(raw["v"], 0)
        cells, least = rows * v, rows * v * (v + 1) // 2
    if cells > MAX_CELLS:
        raise ParseError(f"spec has {cells} cells; instances are capped at {MAX_CELLS} "
                         "cells (stages [3, 127] parse in about 0.4 s and 34 MB)")
    if least > MAX_LEAST_CELLS:
        raise ParseError(f"spec's least names hold {least} cells (sites x n x v(v+1)/2); "
                         f"they are capped at {MAX_LEAST_CELLS} cells (1 site x 3 fibers "
                         "x 590 slots runs in about 0.9 s and 120 MB)")


def parse_instance_spec(text: str) -> InstanceSpec:
    """Parse and validate a spec, then build what every run reads (see
    InstanceSpec); the instance validator runs, but no symmetry check."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("spec JSON is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError("spec must be a JSON object")
    if "stages" in raw:
        kind, allowed = "staged", _STAGED_KEYS
    elif "poset" in raw:
        kind, allowed = "flat", _FLAT_KEYS
    else:
        raise ParseError("spec needs either a 'poset' or a 'stages' key")
    unknown = set(raw) - allowed
    if unknown:
        raise ParseError(f"unknown spec fields: {sorted(unknown)}")
    if kind == "flat":
        _check_poset(raw["poset"])
        required = ["n", "v", "c"] + (["d"] if "d" in raw else [])
    else:
        if (not isinstance(raw["stages"], list)
                or not all(_is_int(s) for s in raw["stages"])):
            raise ParseError("'stages' must be a list of integers")
        required = ["c"]
    for key in required:
        if not _is_int(raw.get(key)):
            raise ParseError(f"spec field {key!r} must be an integer")
    options = _check_options({key: raw[key] for key in _INT_OPTIONS if key in raw})
    for key in ("suites", "formulas"):
        if raw.get(key) is not None and not _is_str_list(raw[key]):
            raise ParseError(f"{key!r} must be a list of strings")
        if raw.get(key) == []:
            raise ParseError(f"{key!r} must not be an empty list")
    _check_cells(raw)
    if kind == "flat":
        poset = Poset.from_pairs(raw["poset"].get("elements", ()),
                                 [tuple(p) for p in raw["poset"].get("leq", ())])
        inst, family = build_instance(poset, raw["n"], raw["v"], raw["c"], raw.get("d"))
        formulas = raw.get("formulas")
        pool = ([(label, _parse(family, label)) for label in formulas]
                if formulas else default_formula_pool(family))
    else:
        inst, family = build_staged_instance(raw["stages"], raw["c"])
        pool = []
    options = {"max_dom": 2, "max_support": inst.support_cutoff, "seed": 0,
               "posets": 0, **options}
    suites = tuple(raw.get("suites") or (FLAT_SUITES if kind == "flat"
                                         else STAGED_SUITES))
    return InstanceSpec(inst, family, options, suites, pool)


# ------------------------------------------------------------------
# name terms for the formula syntax

def _site_of(inst, text):
    """The site that labels and name terms write as text."""
    return {str(z): z for z in inst.sites}[text]


def _resolve_name(family, node):
    inst = family.inst
    if isinstance(node, tuple):
        if not node:
            raise ParseError("empty name term")
        head = node[0]
        if head == "pair" and len(node) == 3:
            return pair_name(inst, _resolve_name(family, node[1]),
                             _resolve_name(family, node[2]))
        if head == "set":
            return set_name(inst, [_resolve_name(family, t) for t in node[1:]])
        raise ParseError(f"unknown name constructor {head!r}")
    parts = node.split(":")
    try:
        if parts[0] == "ord" and len(parts) == 2:
            k = int(parts[1])
            if k > _MAX_ORDINAL:
                raise ValueError(f"ordinal {k} is above the bound {_MAX_ORDINAL}")
            return check_name(inst, ordinal(k))
        if parts[0] == "row" and len(parts) == 3:
            return family.rows[(_site_of(inst, parts[1]), int(parts[2]))]
        if parts[0] == "site" and len(parts) == 2:
            return family.sites[_site_of(inst, parts[1])]
        if parts[0] == "region" and len(parts) == 2:
            sites = frozenset(_site_of(inst, s) for s in parts[1].split("+") if s)
            return family.regions[sites]
        if parts[0] == "least" and len(parts) == 3:
            return family.least[(_site_of(inst, parts[1]), int(parts[2]))]
        if parts[0] == "graph" and len(parts) == 1:
            return family.graph
    except KeyError:
        raise ParseError(f"name term {node!r} is outside the instance") from None
    except ValueError as exc:
        raise ParseError(f"name term {node!r}: {exc}") from None
    raise ParseError(f"unknown name term {node!r}")


def _parse(family, text):
    """A formula of the pool, its name terms resolved in the family."""
    return parse_formula(text, functools.partial(_resolve_name, family))


def default_formula_pool(family) -> list:
    """A deterministic pool of formulas, each read from its label: atomic
    equalities and memberships over the canonical and ordinal names, one
    negation layer and one conjunction layer."""
    r = [f"row:{z}:{a}" for z, a in sorted(family.rows)][:4]
    sites = [f"site:{z}" for z in sorted(family.sites)][:2]
    o = [f"ord:{k}" for k in range(3)]
    atoms = [f"(eq {a} {b})" for a, b in (
        (r[0], r[1 % len(r)]), (r[0], r[-1]), *([sites] if len(sites) == 2 else []),
        (r[0], o[0]), (o[0], o[1]), (o[1], o[1]))]
    atoms += [f"(mem {a} {b})" for a, b in (
        (o[0], r[0]), (o[1], r[0]), (o[0], r[-1]), (r[0], sites[0]),
        (r[0], sites[-1]), (r[-1], sites[0]), (o[0], o[1]), (o[0], o[2]),
        (o[1], o[2]))]
    texts = (atoms + [f"(not {a})" for a in atoms[:3]]
             + [f"(and {a} {b})" for a, b in zip(atoms[0::2], atoms[1::2])][:3])
    return [(text, _parse(family, text)) for text in texts]


# ------------------------------------------------------------------
# the run context

class _Table(dict):
    """A table whose value for a key is built by build(key) on the first
    lookup and kept."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _context(spec: InstanceSpec, overrides: dict) -> _Table:
    """A fresh context for one run: the spec's instance, family, formula
    pool and options, overrides replacing options, and the fields of
    _FIELDS, each built on its first lookup, so nothing a suite computes
    leaks into another run of the same spec."""
    ctx = _Table(lambda field: _FIELDS[field](ctx))
    ctx.update(spec.options, inst=spec.inst, family=spec.family, pool=spec.pool)
    ctx.update(_check_options(overrides))
    return ctx


def _supports(inst, max_support):
    bound = min(max_support, inst.support_cutoff)
    return [frozenset(c) for k in range(bound + 1)
            for c in itertools.combinations(inst.pairs, k)]


def _per_key(build):
    """A field holding a _Table whose entry for a key is build(ctx, key)."""
    return lambda ctx: _Table(lambda key: build(ctx, key))


def _cond_texts(conds) -> _Table:
    """Condition index -> json.dumps(cond.to_obj()), joined from the text
    of each (cell, bit), which is built once per run."""
    cell_text = _Table(lambda item: json.dumps([*item[0], item[1]]))
    return _Table(lambda ci: "[" + ", ".join(
        [cell_text[item] for item in conds[ci].items]) + "]")


def _lemma_fail(vector, perm, image, phi):
    """The conditions where the symmetry lemma fails for the permutation
    (image: the index of each condition's image under it) and formula,
    by forcing.lemma_disagreement on the vectors; a failing unit runs
    symmetry_lemma_check itself for its witness."""
    image_phi = act_formula(perm, phi)
    return lemma_disagreement(vector[phi, "semantic"],
                              _pull_back(vector[image_phi, "semantic"], image),
                              vector[phi, "recursive"],
                              _pull_back(vector[image_phi, "recursive"], image))


def _wisc_pool(ctx, base):
    """The labeled names living at the base stage."""
    inst = ctx["inst"]
    pool = [(f"ord:{k}", check_name(inst, ordinal(k))) for k in range(2)]
    return pool + [(label, nm) for label, nm in ctx["names"].items()
                   if label != "graph" and in_stage(nm, base)]


def _plan_groups(cond_text, plans, tails, key, kernel, head):
    """The group of each use (condition index, plan index) of plans, a
    kernels.swap_plans (plans, uses) pair: head and the condition's text,
    tails[plan index] and the failing fields of the units whose key(step)
    failed.  kernel(qi, si, z, a, step) is a unit's kernel report.  One
    pass over the distinct plans runs it once per key, on the key's first
    input in line order (the first use of the first plan holding the key),
    and lists each plan's failing entries, 0 when there are none; a
    failing entry's unit reruns it for its witness."""
    plans, uses = plans
    first = {pi: qi for qi, pi in reversed(uses)}
    verdicts, fails = {}, []
    for pi, plan in enumerate(plans):
        for entry in plan:
            if (k := key(entry[-1])) not in verdicts:
                verdicts[k] = kernel(first[pi], *entry).verdict
        fails.append([i for i, (*_, step) in enumerate(plan)
                      if not verdicts[key(step)]] or 0)
    for qi, pi in uses:
        yield head + cond_text[qi], tails[pi], fails[pi] and {
            i: 0 if (report := kernel(qi, *plans[pi][i])).verdict else report.to_obj()
            for i in fails[pi]}


# field -> build(ctx), run on its first lookup; a _per_key field is a
# _Table from a key (an index, a mode, or a tuple of them) to an entry
_FIELDS = {
    "hash": lambda ctx: sha256(json.dumps(
        ctx["inst"].describe(), sort_keys=True).encode()).hexdigest()[:12],
    "names": lambda ctx: dict(ctx["family"].members()),
    "members": lambda ctx: [label for label in ctx["names"]
                            if label.split(":")[0] in ("row", "site")],
    "conditions": lambda ctx: list(iter_conditions(ctx["inst"], ctx["max_dom"])),
    "cond_index": lambda ctx: {c: i for i, c in enumerate(ctx["conditions"])},
    "perms": lambda ctx: generator_closure(fix_generators(ctx["inst"], ()), 3),
    "supports": lambda ctx: _supports(ctx["inst"], ctx["max_support"]),
    "chain": lambda ctx: chain_family(ctx["inst"]),
    # the JSON text of a label or site, and of a condition or support by
    # index
    "text": lambda ctx: _Table(json.dumps),
    "cond_text": lambda ctx: _cond_texts(ctx["conditions"]),
    "support_text": _per_key(
        lambda ctx, si: json.dumps(_support_obj(ctx["supports"][si]))),
    # mode -> forcing_vectors over the conditions, and (formula, mode) ->
    # that function's vector for the formula
    "vectors": _per_key(lambda ctx, mode: forcing_vectors(ctx["conditions"], mode)),
    "vector": _per_key(lambda ctx, key: ctx["vectors"][key[1]](key[0])),
    # (site, fiber) targets -> kernels.swap_plans' (plans, uses): the swap
    # suite's targets are the instance's pairs, a wisc stage's ((stage, None),)
    "plans": _per_key(lambda ctx, targets: swap_plans(
        ctx["inst"], ctx["conditions"], ctx["supports"], targets)),
    # base stage -> the wisc suite's name pool
    "wisc_pool": _per_key(_wisc_pool),
}


def _pull_back(vector: int, image: list) -> int:
    """The bit vector whose bit i is bit image[i] of vector."""
    bits = format(vector, f"0{len(image)}b")[::-1]
    return int("".join(itemgetter(*reversed(image))(bits)), 2)


# ------------------------------------------------------------------
# suites: gen(ctx) decides each unit, in order, and yields them in
# groups (params prefix, tails, fails): a line's params text is the
# prefix and its tail.  fails is falsy when every unit of the group
# passes; otherwise it maps a tail's index to that unit's failing field:
# falsy on a pass, True on a fail without a witness, and otherwise the
# fail's witness, a non-empty JSON object built only for a failing unit.
# A lone unit is a group of one (_one).  run is _unit for every suite.
# Which suites apply to which kind of instance is
# FLAT_SUITES/STAGED_SUITES

def _one(params, failing):
    """A lone unit's group: its params text and failing field."""
    return params, ("",), failing and {0: failing}


def _downset_law(poset):
    """(z1, z2, ok) for each ordered pair of the poset's elements: ok when
    z1 <= z2 exactly when the down-set of z1 is inside that of z2."""
    down = downset_embedding(poset)
    for z1 in poset.elements:
        for z2 in poset.elements:
            yield z1, z2, poset.leq(z1, z2) == (down[z1] <= down[z2])


def _gen_embedding(ctx):
    for z1, z2, ok in _downset_law(ctx["inst"].poset):
        yield _one(json.dumps({"pair": [z1, z2]}), not ok)
    for i in range(ctx["posets"]):
        rng = random.Random(f"{ctx['seed']}:{i}")
        poset = random_poset(rng)
        bad = [(z1, z2) for z1, z2, ok in _downset_law(poset) if not ok]
        params = {"sample": i, "seed": ctx["seed"], "elements": len(poset.elements)}
        yield _one(json.dumps(params), bad and {"failing_pairs": bad})


def _formula_tails(ctx):
    """The end of a params text naming each formula of the pool."""
    return [', "formula": ' + ctx["text"][label] + '}' for label, _ in ctx["pool"]]


def _gen_oracle(ctx):
    # a condition's group is the pool's formulas.  A unit fails when its
    # bit of its formula's fail mask is set: the two modes differ at its
    # condition, and the witness is each one's bit
    tails, vector = _formula_tails(ctx), ctx["vector"]
    phis = [phi for _, phi in ctx["pool"]]
    masks = [vector[phi, "recursive"] ^ vector[phi, "semantic"] for phi in phis]
    fails = functools.reduce(or_, masks)
    for ci in range(len(ctx["conditions"])):
        yield '{"condition": ' + ctx["cond_text"][ci], tails, fails >> ci & 1 and {
            fi: {mode: bool(vector[phi, mode] >> ci & 1)
                 for mode in ("recursive", "semantic")}
            for fi, (mask, phi) in enumerate(zip(masks, phis)) if mask >> ci & 1}


def _gen_symmetry(ctx):
    # a (permutation, condition)'s group is the pool's formulas.  A unit
    # fails when its bit of its (permutation, formula) fail mask is set,
    # and then runs the one-shot check for its witness; the fail masks
    # are read once per permutation
    tails, cond_text = _formula_tails(ctx), ctx["cond_text"]
    conditions, where, vector = ctx["conditions"], ctx["cond_index"], ctx["vector"]
    phis = [phi for _, phi in ctx["pool"]]
    for perm in ctx["perms"]:
        image = [where[act_condition(perm, c)] for c in conditions]
        masks = [_lemma_fail(vector, perm, image, phi) for phi in phis]
        fails = functools.reduce(or_, masks)
        head = '{"permutation": ' + json.dumps(perm.to_obj()) + ', "condition": '
        for ci, q in enumerate(conditions):
            yield head + cond_text[ci], tails, fails >> ci & 1 and {
                fi: 0 if (report := symmetry_lemma_check(perm, q, phi)).equal
                else report.witness
                for fi, (mask, phi) in enumerate(zip(masks, phis)) if mask >> ci & 1}


def _gen_swap(ctx):
    # swap_kernel's verdict reads only its step (the two flags, and the
    # support's default names under the transposition), so its key is
    # the step itself
    inst, conditions, supports = ctx["inst"], ctx["conditions"], ctx["supports"]
    support_text, text = ctx["support_text"], ctx["text"]
    plans = ctx["plans"][inst.pairs]
    tails = [[', "support": ' + support_text[si] + ', "site": ' + text[z]
              + f', "fiber": {a}, "partner": {step.mate}}}' for si, z, a, step in plan]
             for plan in plans[0]]
    yield from _plan_groups(
        ctx["cond_text"], plans, tails, lambda step: step,
        lambda qi, si, z, a, step: swap_kernel(inst, conditions[qi], supports[si],
                                               z, a, step=step),
        '{"condition": ')


def _gen_hs(ctx):
    # a row or least name's least support is its own pair, a site name's
    # is empty, any other name has one, and every name is hereditarily
    # symmetric
    inst = ctx["inst"]
    for label, nm in ctx["names"].items():
        found = infer_min_support(inst, nm)
        hereditarily = is_hs(inst, nm)
        kind, *rest = label.split(":")
        expected = (frozenset({(_site_of(inst, rest[0]), int(rest[1]))})
                    if kind in ("row", "least") else frozenset() if kind == "site"
                    else found)
        ok = found is not None and found == expected
        params = {"name": label,
                  "support": _support_obj(found) if found is not None else None}
        yield _one(json.dumps(params), not (ok and hereditarily))


def _gen_normality(ctx):
    # conjugation units run permutation-major, so conjugation_check
    # conjugates each generator once per permutation; a support's image is
    # a support too.  Then an assembly unit per one or two members fails
    # when a certified bundle is not hereditarily symmetric
    inst, supports, support_text = ctx["inst"], ctx["supports"], ctx["support_text"]
    where = {support: si for si, support in enumerate(supports)}
    for perm in ctx["perms"]:
        head = '{"permutation": ' + json.dumps(perm.to_obj()) + ', "support": '
        for si, support in enumerate(supports):
            report = conjugation_check(inst, perm, support)
            yield _one(head + support_text[si] + ', "image": '
                       + support_text[where[report.support_image]] + '}',
                       not report.ok and {"witness": report.witness.to_obj()})
    names = ctx["names"]
    for k in (1, 2):
        for labels in itertools.combinations(ctx["members"], k):
            report = assemble_sequence(inst, [names[label] for label in labels])
            params = {"members": list(labels), "hereditarily_symmetric": report.hs,
                      "certified": report.certified}
            yield _one(json.dumps(params), report.certified and not report.hs)


def _gen_wisc(ctx):
    # wisc_kernel's verdict reads only its step's wisc_key, so the kernel
    # runs once per (base stage, swap stage, name, key).  A stage's lines
    # run condition-major, so a line is its condition's prefix and its
    # support's tail
    inst, conditions, supports = ctx["inst"], ctx["conditions"], ctx["supports"]
    support_tails = [', "support": ' + ctx["support_text"][si] + '}'
                     for si in range(len(supports))]
    for base in inst.sites:
        pool = ctx["wisc_pool"][base]
        for swap in inst.sites:
            if swap > base:
                plans = ctx["plans"][((swap, None),)]
                tails = [[support_tails[si] for si, *_ in plan] for plan in plans[0]]
                for label, y in pool:
                    yield from _plan_groups(
                        ctx["cond_text"], plans, tails, wisc_key,
                        lambda qi, si, z, a, step: wisc_kernel(
                            inst, base, y, swap, conditions[qi], supports[si], step),
                        f'{{"base_stage": {base}, "swap_stage": {swap}, '
                        f'"name": {ctx["text"][label]}, "condition": ')


def _gen_chains(ctx):
    # each link's entries are a proper subset of the link below, and each
    # sampled filter interprets every link inside the one below
    staged, chain = ctx["inst"], ctx["chain"]
    for b in range(len(staged.sites) - 1):
        ok = set(chain[b + 1].entries) < set(chain[b].entries)
        yield _one(json.dumps({"link": [b + 1, b]}), not ok)
    for i in range(16):
        rng = random.Random(f"{ctx['seed']}:chain:{i}")
        bits = [rng.randint(0, 1) for _ in staged.cells]
        filt = GenericFilter(staged, bits)
        links = ((interpret(chain[b + 1], filt), interpret(chain[b], filt))
                 for b in range(len(chain) - 1))
        ok = all(all(e in large for e in small) for small, large in links)
        yield _one(json.dumps({"sample": i, "seed": ctx["seed"]}),
                   not ok and {"bits": bits})


def _unit(ctx, unit):
    """Every suite's run: the generator has decided the group, which is
    already its (params prefix, tails, fails)."""
    return unit


# in the order --help lists them
SUITES = {suite: (gen, _unit) for suite, gen in (
    ("symmetry-lemma", _gen_symmetry),
    ("forcing-oracle", _gen_oracle),
    ("swap", _gen_swap),
    ("hs", _gen_hs),
    ("normality", _gen_normality),
    ("wisc", _gen_wisc),
    ("embedding", _gen_embedding),
    ("chains", _gen_chains),
)}


def _run_units(ctx, suite, out) -> bool:
    """Run the suite's units in order, writing each group's report lines
    (JSON text, the fields in a fixed order) as soon as it has run; True
    when any verdict is not pass.  The clock is read in whole
    microseconds once per group the generator yields (see the suites
    comment), after its run, so a group's elapsed time runs from the
    previous reading (the suite's start, for the first group): it covers
    the group's generation, any shared table built for it and its run.
    The group's first line carries that time and the rest read 0.0, so a
    suite's elapsed times add up to its span.  A group whose units all
    pass is written with one join, any other a line per unit; with
    elapsed stripped, each line is the one its unit would give alone."""
    gen, run = SUITES[suite]
    head = ('{"suite": ' + json.dumps(suite)
            + ', "instance": ' + json.dumps(ctx["hash"]) + ', "params": ')
    # microseconds -> the repr of the seconds, which is the JSON text of
    # round(seconds, 6); a suite of T microseconds needs at most
    # sqrt(2 T) entries, however many units it has
    seconds = _Table(lambda us: repr(us / 1e6))
    write, failed = out.write, False
    passed = ', "verdict": "pass", "elapsed": 0.0}\n'
    last = monotonic_ns() // 1000
    for group in gen(ctx):
        prefix, tails, fails = run(ctx, group)
        now = monotonic_ns() // 1000
        elapsed, last = seconds[now - last], now
        lead = head + prefix
        if not fails:
            write(f'{lead}{tails[0]}, "verdict": "pass", "elapsed": {elapsed}}}\n')
            if len(tails) > 1:
                write(lead + (passed + lead).join(tails[1:]) + passed)
            continue
        for i, tail in enumerate(tails):
            failing = fails.get(i)
            if not failing:
                write(f'{lead}{tail}, "verdict": "pass", "elapsed": {elapsed}}}\n')
            else:
                failed = True
                witness = "" if failing is True else ', "witness": ' + json.dumps(failing)
                write(f'{lead}{tail}, "verdict": "fail"{witness}, "elapsed": {elapsed}}}\n')
            elapsed = "0.0"
    return failed


def run_checks(spec: InstanceSpec, suite: str = "all", jobs: int = 1,
               overrides: dict | None = None, out=None) -> int:
    """Run a suite (or every applicable one) and stream JSON lines; the
    return value is the process exit status.  Every run is serial, in
    this process: worker processes made no workload faster and held each
    chunk's lines in memory.  jobs is kept for callers that pass jobs=1;
    any other value raises ValueError."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (runs are serial), got {jobs!r}")
    out = out or sys.stdout
    ctx = _context(spec, overrides or {})
    own = FLAT_SUITES if spec.kind == "flat" else STAGED_SUITES
    suites = spec.suites if suite == "all" else (suite,)
    if spec.kind == "flat" and {"forcing-oracle", "symmetry-lemma"} & set(suites):
        # both suites run both forcing modes: reject before any output
        check_size(ctx["inst"], "recursive", "semantic")
    failed = False
    for name in suites:
        # a suite runs when it is listed for the spec's kind
        if name not in own:
            known = name in SUITES
            error = (f"suite {name!r} does not apply to a {spec.kind} instance"
                     if known else f"unknown suite {name!r}")
            print(json.dumps({"suite": name, "instance": ctx["hash"] if known else "-",
                              "params": {}, "verdict": "fail",
                              "witness": {"error": error}, "elapsed": 0.0}), file=out)
            failed = True
            continue
        failed = _run_units(ctx, name, out) or failed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symext",
        description="run check suites against an instance spec file")
    parser.add_argument("--spec", required=True, help="path to a JSON spec file")
    parser.add_argument("--suite", default="all",
                        help="suite name or 'all' (%s)" % ", ".join(SUITES))
    parser.add_argument("--max-dom", type=int, default=None,
                        help="condition domain bound for enumerating suites")
    parser.add_argument("--max-support", type=int, default=None,
                        help="support size bound for enumerating suites")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sampled suites (logged in each line)")
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in (("max_dom", args.max_dom),
                                   ("max_support", args.max_support),
                                   ("seed", args.seed)) if v is not None}
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = parse_instance_spec(fh.read())
        return run_checks(spec, args.suite, overrides=overrides)
    except BrokenPipeError:
        # as under `| head`: on devnull, the final flush of stdout is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("symext: stdout closed before the run ended", file=sys.stderr)
    except (OSError, UnicodeDecodeError, EngineError) as exc:
        print(f"symext: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
