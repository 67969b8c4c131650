"""Executable proof kernels.

Each kernel runs the finite combinatorial step at the heart of one
contradiction argument and reports every sub-check with its witnesses.
Kernels never assert anything about infinite cardinalities; the scope
string in every report says so.  All witness choices use least-index
tie-breaking, so identical inputs give identical reports.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .core import (Condition, compatible, iter_conditions, _conflict, _same_instance)
from .errors import FiberExhausted, StageViolation
from .forcing import Eq, forces
from .instances import canonical_family, in_stage, least_value_name
from .names import Name, check_name, name_cells, ordinal
from .symmetry import (FiberPermutation, act_condition, act_name,
                       check_support, in_fix)

SCOPE = ("verifies the finite combinatorial step only (stabilizer membership, "
         "name fixation, condition compatibility); no conclusion about "
         "infinite cardinalities is asserted")


class KernelReport:
    """A kernel's verdict and its report fields inputs, chosen, checks and
    witness.  The kernel computes every check when called and hands the
    values to its details function (_swap_details or _wisc_details),
    which writes the fields out by name; details(*values) runs once, on
    the first read of any field, so a passing unit reads only the
    verdict, and reading the fields never reruns a check."""

    scope = SCOPE

    def __init__(self, kernel: str, verdict: bool, details, values: tuple):
        self.kernel = kernel
        self.verdict = verdict
        self._details = details
        self._values = values

    @cached_property
    def _fields(self) -> dict:
        return self._details(*self._values)

    inputs = property(lambda self: self._fields["inputs"])
    chosen = property(lambda self: self._fields["chosen"])
    checks = property(lambda self: self._fields["checks"])
    witness = property(lambda self: self._fields["witness"])

    def __bool__(self):
        return self.verdict

    def to_obj(self) -> dict:
        return {"kernel": self.kernel, **self._fields,
                "verdict": "pass" if self.verdict else "fail", "scope": self.scope}


def _support_obj(support) -> list:
    return sorted(map(list, support))


def partner(inst, support, site, fiber, occupied) -> int | None:
    """The least fiber b != fiber at the site with (site, b) outside the
    support and b not in occupied; None when there is none."""
    for b in range(inst.fiber_count(site)):
        if b != fiber and (site, b) not in support and b not in occupied:
            return b
    return None


def swap_fibers(inst, support, site, fiber, occupied) -> tuple | None:
    """The two fibers a swap at the site transposes: fiber (when None,
    the least fiber outside the support) and its mate, the partner of
    fiber whose index is not in occupied; None when fiber is in the
    support or either fiber is missing.  _choice builds a step exactly
    where this rule finds the fibers, for both kernels and the CLI."""
    if fiber is None:
        fiber = partner(inst, support, site, None, ())
    elif (site, fiber) in support:
        return None
    mate = None if fiber is None else partner(inst, support, site, fiber, occupied)
    return None if mate is None else (fiber, mate)


class SwapStep(namedtuple("SwapStep", ("fiber", "mate", "in_stabilizer", "compatible",
                                        "transposition", "support"))):
    """The part of a kernel run that does not depend on the names: the
    two fibers of the transposition, whether it fixes the support
    pointwise, whether it carries the condition to a compatible one, the
    transposition itself and the validated support it was built on."""

    __slots__ = ()


def swap_plans(inst, conditions, supports, targets):
    """(plans, uses): plans holds each distinct non-empty plan once, in
    order of first use, and uses holds (condition index, plan index) for
    each condition whose plan is not empty, in condition order.  A
    condition's plan is the tuple of (support index, site, fiber, step)
    for each support and each (site, fiber) of targets, in that order, on
    which swap_fibers finds the fibers; _choice, which swap_step calls
    too, is the one place a step is chosen.  fiber None asks for the
    least fiber outside the support.  The supports are trusted to be
    frozensets of the instance's pairs.

    The fibers, the transposition and the stabilizer flag depend only on
    the support, the target and the condition's touched fibers at the
    site, so the steps are chosen once per touched-fiber shape (the
    touched fibers at every target site); the compatibility flag depends
    only on the condition and the transposition, so it is decided once
    per transposition of each condition, in the order of the
    transposition's first entry.  A plan is built once per (shape,
    compatibility flags) and interned by value to its index, so equal
    plans of different keys share one index; its steps are shared
    likewise: the mate is untouched by the condition, so under the sound
    action every step is compatible, and an incompatible entry holds a
    copy with the flag cleared.  The tables live for one call, and their
    sizes are bounded by the supports and the distinct shapes, not by
    the conditions."""
    sites = dict.fromkeys(z for z, _ in targets)
    # shape -> (its entries of compatible steps, their transpositions in
    # order of first entry)
    shapes = {}
    # (shape, compatibility flags) -> plan index, and each plan -> its
    # index, in order of first use
    indices, by_value, uses = {}, {}, []
    for qi, q in enumerate(conditions):
        touched = tuple([q.touched_fibers(z) for z in sites])
        shape = shapes.get(touched)
        if shape is None:
            occupied = dict(zip(sites, touched))
            entries = tuple((si, z, a, step) for si, support in enumerate(supports)
                            for z, a in targets if (step := _choice(
                                inst, support, z, a, occupied[z])) is not None)
            shape = shapes[touched] = (entries, tuple(dict.fromkeys(
                step.transposition for *_, step in entries)))
        entries, order = shape
        if not entries:
            continue
        flags = tuple([_compatible(q, pi) for pi in order])
        index = indices.get((touched, flags))
        if index is None:
            agrees = dict(zip(order, flags))
            plan = tuple((si, z, a, step if agrees[step.transposition]
                          else step._replace(compatible=False))
                         for si, z, a, step in entries)
            index = indices[touched, flags] = by_value.setdefault(plan, len(by_value))
        uses.append((qi, index))
    return list(by_value), uses


def _choice(inst, support, site, fiber, occupied) -> SwapStep | None:
    """swap_plans' choice for one (support, site, fiber, touched fibers):
    None when swap_fibers finds no fibers, else the compatible step."""
    fibers = swap_fibers(inst, support, site, fiber, occupied)
    if fibers is None:
        return None
    pi = FiberPermutation.transposition(inst, site, *fibers)
    return SwapStep(*fibers, in_fix(pi, support), True, pi, support)


def _compatible(q: Condition, pi: FiberPermutation) -> bool:
    """Whether pi carries q to a condition compatible with q: agreement on
    the common domain decides; only a witness needs the merged condition,
    and _witness builds it."""
    return _conflict(q, act_condition(pi, q)) is None


def swap_step(inst, q: Condition, support, site, fiber=None) -> SwapStep:
    """The one-input case of swap_plans, on a validated support: the step
    for (q, support, site, fiber), chosen by _choice, whose mate has a row
    untouched by q.  A caller running many names against one (q, support,
    site, fiber) can build it once and hand it to a kernel as step=."""
    _same_instance(inst, q.inst)
    support = check_support(inst, support)
    if (site, fiber) in support:
        raise ValueError(f"target pair {(site, fiber)!r} must avoid the support")
    step = _choice(inst, support, site, fiber, q.touched_fibers(site))
    if step is None:
        raise FiberExhausted(
            f"no spare fiber at site {site!r}: every other fiber is in the "
            "support or touched by the condition")
    return step if _compatible(q, step.transposition) else step._replace(compatible=False)


def _name_checks(pi: FiberPermutation, y: Name) -> tuple:
    """(pi fixes y literally, pi's moved pairs avoid every pair in y's
    closure), computed once per (transposition, name) and kept in the
    instance's store."""
    table = pi.inst.store.name_checks
    key = (pi, y)
    found = table.get(key)
    if found is None:
        own = frozenset((c[0], c[1]) for c in name_cells(y))
        found = table[key] = (act_name(pi, y) is y, in_fix(pi, own))
    return found


def _default_names(inst, support: frozenset) -> list:
    """swap_kernel's default names: the row names of the support pairs
    and every site name, built once per support and kept in the store."""
    table = inst.store.swap_names
    names = table.get(support)
    if names is None:
        family = canonical_family(inst)
        names = [(f"row:{z}:{a}", family.rows[(z, a)]) for (z, a) in sorted(support)]
        names += [(f"site:{z}", family.sites[z]) for z in inst.sites]
        table[support] = names
    return names


def _witness(pi: FiberPermutation, q: Condition, **fields) -> dict:
    """A kernel's witness: the cycles of the transposition, the kernel's
    own fields, the relabelled condition and the outcome of merging it
    with q, rebuilt here since only a read witness needs them."""
    moved_q = act_condition(pi, q)
    comp = compatible(q, moved_q)
    return {"cycles": pi.to_obj(), **fields,
            "relabeled_condition": moved_q.to_obj(),
            "merged": comp.witness.to_obj() if comp.witness is not None else None,
            "cutoff_exceeded": comp.cutoff_exceeded}


def swap_kernel(inst, q: Condition, support, site, fiber, names=None,
                step: SwapStep | None = None) -> KernelReport:
    """The fiber-swap step: pick a partner fiber, build the transposition,
    and check that it (i) fixes the support pointwise, (ii) fixes every
    supplied support-anchored name literally, and (iii) carries q to a
    condition compatible with q; the merge is built in the witness.

    names is a list of (label, Name) pairs; by default the canonical row
    names of the support pairs plus every site name.

    step, when given, is swap_step(inst, q, support, site, fiber), which
    has validated the support: a caller that has already chosen the
    fibers can build it once.  The kernel trusts it, its support and
    transposition included.

    With the default names the verdict reads only the step: its two
    flags, and the support's names under its transposition; q, the site
    and the fiber reach only the report fields.  So equal steps get
    equal verdicts, and the CLI's swap suite keys its shared verdicts by
    the step.  A new check that reads q, the site or the fiber must end
    that.
    """
    if step is None:
        step = swap_step(inst, q, support, site, fiber)
    pi = step.transposition
    if names is None:
        names = _default_names(inst, step.support)
    fixed = {label: _name_checks(pi, nm)[0] for label, nm in names}
    names_fixed = all(fixed.values())
    return KernelReport("swap", step.in_stabilizer and names_fixed and step.compatible,
                        _swap_details, (step, q, site, fiber, names_fixed, fixed))


def _swap_details(step: SwapStep, q: Condition, site, fiber, names_fixed: bool,
                  fixed: dict) -> dict:
    """swap_kernel's report fields, from the values it computed."""
    return {
        "inputs": {"condition": q.to_obj(), "support": _support_obj(step.support),
                   "site": site, "fiber": fiber},
        "chosen": {"partner": step.mate},
        "checks": {"permutation_in_stabilizer": step.in_stabilizer,
                   "names_fixed": names_fixed,
                   "conditions_compatible": step.compatible},
        "witness": _witness(step.transposition, q, names_fixed=fixed),
    }


def wisc_kernel(staged, base_stage: int, y: Name, swap_stage: int,
                q: Condition, support, step: SwapStep | None = None) -> KernelReport:
    """The stage-local swap step: the name y must live at the base stage;
    a transposition of two fibers at a strictly later stage is built (the
    first fiber least outside the support, the second additionally with a
    row untouched by q) and checked to fix y, fix the support pointwise,
    and carry q to a compatible condition.

    Locality is recorded twice: literally (the lifted action returns y)
    and structurally (the moved pairs avoid every pair mentioned in y's
    closure); the two must agree here, and the verdict uses the literal
    form.  Both are computed once per (transposition, name).

    step, when given, is swap_step(staged, q, support, swap_stage), as
    for swap_kernel: a caller running many names against one (swap_stage,
    q, support) can run that once.  The kernel trusts it, its support and
    transposition included.

    Given the stages and the name, the verdict reads of the step only its
    wisc_key, (transposition, in_stabilizer, compatible), and reads q only
    through the two step flags; so steps with one key get one verdict, and
    the CLI's wisc suite keys its shared verdicts by wisc_key.  A new
    check that reads q, the support or the fibers must widen that key.
    """
    _same_instance(staged, q.inst)
    if base_stage not in staged.site_index:
        raise ValueError(f"base stage {base_stage!r} is not a stage of the instance")
    if swap_stage not in staged.site_index:
        raise ValueError(f"swap stage {swap_stage!r} is not a stage of the instance")
    if swap_stage <= base_stage:
        raise ValueError("swap stage must lie strictly above the base stage")
    if not in_stage(y, base_stage):
        raise StageViolation(f"name uses cells above stage {base_stage}")
    if step is None:
        step = swap_step(staged, q, support, swap_stage)
    name_fixed, disjoint = _name_checks(step.transposition, y)
    # disjointness must imply literal fixation (locality_forms_agree); a
    # violation is a bug in the lifted action, not a property of the inputs
    return KernelReport("wisc", name_fixed and step.in_stabilizer and step.compatible,
                        _wisc_details, (step, base_stage, swap_stage, y.rank, q,
                                        name_fixed, disjoint, name_fixed or not disjoint))


def wisc_key(step: SwapStep) -> tuple:
    """What wisc_kernel's verdict reads of a step, given the stages and
    the name: (transposition, in_stabilizer, compatible)."""
    return step.transposition, step.in_stabilizer, step.compatible


def _wisc_details(step: SwapStep, base_stage: int, swap_stage: int, rank: int,
                  q: Condition, name_fixed: bool, disjoint: bool, agree: bool) -> dict:
    """wisc_kernel's report fields, from the values it computed."""
    return {
        "inputs": {"base_stage": base_stage, "swap_stage": swap_stage, "name_rank": rank,
                   "condition": q.to_obj(), "support": _support_obj(step.support)},
        "chosen": {"first_fiber": step.fiber, "second_fiber": step.mate},
        "checks": {"name_fixed": name_fixed, "moved_avoids_name_cells": disjoint,
                   "locality_forms_agree": agree,
                   "permutation_in_stabilizer": step.in_stabilizer,
                   "conditions_compatible": step.compatible},
        "witness": _witness(step.transposition, q),
    }


class MinOntoReport(namedtuple("MinOntoReport", ("site", "max_dom", "checked", "witnessed",
                                                 "failures", "defects"))):
    """Density sweep for the least-value map of one site.

    For every condition with spare room and every slot value, a witness
    extension forcing the least name to equal that value must exist; it
    is built explicitly on a fresh fiber and verified against the
    semantic oracle.  failures lists the (condition, slot) pairs with no
    fresh fiber (the saturation boundary); defects lists constructed
    witnesses the oracle rejected, which would be engine bugs.
    """

    __slots__ = ()
    scope = SCOPE

    @property
    def verdict(self) -> bool:
        return not self.defects

    def __bool__(self):
        return self.verdict

    def to_obj(self) -> dict:
        return {
            "kernel": "min-onto",
            "site": self.site,
            "max_dom": self.max_dom,
            "checked": self.checked,
            "witnessed": self.witnessed,
            "failures": [{"condition": items, "slot": g} for items, g in self.failures],
            "defects": list(self.defects),
            "verdict": "pass" if self.verdict else "fail",
            "scope": self.scope,
        }


def min_onto_check(inst, site, max_dom: int | None = None) -> MinOntoReport:
    """Sweep all conditions with domain at most domain_cutoff - slots (or
    max_dom if smaller) and all slot values; for each, extend on a fresh
    fiber so the row's least 1 lands on the value, and confirm the
    extension forces the least name to equal the value's ordinal."""
    v = inst.slot_count(site)
    room = inst.domain_cutoff - v
    limit = room if max_dom is None else min(max_dom, room)
    checked = witnessed = 0
    failures = []
    defects = []
    for p in iter_conditions(inst, limit):
        fresh = partner(inst, (), site, None, p.touched_fibers(site))
        for gamma in range(v):
            checked += 1
            if fresh is None:
                failures.append((p.to_obj(), gamma))
                continue
            row = {(site, fresh, d): 0 for d in range(gamma)}
            row[(site, fresh, gamma)] = 1
            q = p.extend_with(row)
            phi = Eq(least_value_name(inst, site, fresh),
                     check_name(inst, ordinal(gamma)))
            if forces(q, phi, "semantic"):
                witnessed += 1
            else:
                defects.append({"condition": p.to_obj(), "slot": gamma,
                                "witness": q.to_obj()})
    return MinOntoReport(site=site, max_dom=limit, checked=checked,
                         witnessed=witnessed, failures=tuple(failures),
                         defects=tuple(defects))
