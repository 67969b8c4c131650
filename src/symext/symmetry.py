"""Fiber permutations, their lifted action, supports, and subgroup machinery.

The group consists of the permutations of (site, fiber) pairs that
preserve the site coordinate and move only finitely many pairs (on a
staged instance, fewer pairs per stage than the stage size).  The
pointwise stabilizer of a support set E is generated, inside this group,
by the transpositions of two same-site fibers that both avoid E; that
generator list is what every symmetry test runs on, which suffices
because the lifted action is a group homomorphism.

Subgroups are never materialized.  Membership of a group in the support
filter is always certified by a support set E with |E| <= support
cutoff, and conjugation is decided by mapping generator sets through the
permutation (exact for these stabilizers, which move a fiber iff it is
free).  Tests cross-check against brute-force closures at small scale.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .core import Condition, _same_instance
from .errors import InvalidInstance
from .names import Name, make_name, name_cells, set_name


class FiberPermutation:
    """A finitely-supported, site-preserving permutation of (site, fiber)
    pairs, stored as its moved-pair mapping."""

    __slots__ = ("inst", "moved", "_map", "_hash")

    def __init__(self, inst, mapping):
        if isinstance(mapping, Mapping):
            mapping = mapping.items()
        moved = {}
        pair_set = inst.pair_set
        for src, dst in mapping:
            src, dst = tuple(src), tuple(dst)
            if src not in pair_set or dst not in pair_set:
                raise InvalidInstance(f"pair {src!r} -> {dst!r} outside instance bounds")
            if src == dst:
                continue
            if src[0] != dst[0]:
                raise InvalidInstance(f"permutation must preserve sites: {src!r} -> {dst!r}")
            if moved.setdefault(src, dst) != dst:
                raise InvalidInstance(f"pair {src!r} mapped twice")
        if set(moved.values()) != set(moved):
            raise InvalidInstance("moved pairs must permute among themselves")
        counts = {}
        for site, _ in moved:
            counts[site] = counts.get(site, 0) + 1
        for site, count in counts.items():
            if count > inst.moved_bound(site):
                raise InvalidInstance(
                    f"permutation moves {count} fibers at site {site!r}, "
                    f"bound is {inst.moved_bound(site)}")
        self.inst = inst
        self.moved = tuple(sorted(moved.items()))
        self._map = moved
        self._hash = hash((inst, self.moved))

    @classmethod
    def identity(cls, inst):
        return cls(inst, ())

    @classmethod
    def transposition(cls, inst, site, a, b):
        """The swap of fibers a and b at the site, built and validated
        once per (site, a, b) in the instance's store and shared with
        (site, b, a); an invalid one raises every time."""
        interned = inst.store.transpositions
        pi = interned.get((site, a, b))
        if pi is None:
            pi = cls(inst, {(site, a): (site, b), (site, b): (site, a)})
            interned[site, a, b] = interned[site, b, a] = pi
        return pi

    @classmethod
    def from_cycles(cls, inst, cycles):
        mapping = {}
        for cycle in cycles:
            cycle = [tuple(p) for p in cycle]
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                mapping[src] = dst
        return cls(inst, mapping)

    def __call__(self, pair):
        return self._map.get(tuple(pair), tuple(pair))

    def compose(self, other: "FiberPermutation") -> "FiberPermutation":
        """self after other: (self * other)(x) = self(other(x))."""
        _same_instance(self.inst, other.inst)
        support = set(self._map) | set(other._map)
        return FiberPermutation(self.inst, {p: self(other(p)) for p in support})

    __mul__ = compose

    def inverse(self) -> "FiberPermutation":
        return FiberPermutation(self.inst, {dst: src for src, dst in self.moved})

    @property
    def is_identity(self) -> bool:
        return not self.moved

    def cycles(self) -> list:
        out = []
        seen = set()
        for src, _ in self.moved:
            if src in seen:
                continue
            cycle = [src]
            seen.add(src)
            nxt = self(src)
            while nxt != src:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            out.append(cycle)
        return out

    def to_obj(self) -> list:
        """The JSON form every report writes: its cycles as pair lists."""
        return [[list(p) for p in c] for c in self.cycles()]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiberPermutation):
            return NotImplemented
        return self.moved == other.moved and (self.inst is other.inst or self.inst == other.inst)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_identity:
            return "FiberPermutation(id)"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"FiberPermutation({body})"


def act_condition(pi: FiberPermutation, p: Condition) -> Condition:
    """Relabel each cell's (site, fiber) by pi, keeping slot and bit.

    pi maps pairs to pairs of the same site, bijectively, so every image
    cell is in the instance and every per-site count is unchanged: the
    image needs no re-validation.  When pi moves none of p's pairs the
    image is p itself."""
    _same_instance(pi.inst, p.inst)
    get = pi._map.get
    for (site, fiber, _), _ in p.items:
        if get((site, fiber)) is not None:
            break
    else:
        return p
    image = []
    for (site, fiber, slot), bit in p.items:
        dst = get((site, fiber))
        image.append(((site, fiber if dst is None else dst[1], slot), bit))
    image.sort()
    return Condition._trusted(p.inst, tuple(image))


def act_name(pi: FiberPermutation, x: Name) -> Name:
    """The lifted action on names: relabel every condition, recursively.

    The image of every entry is computed; when each equals its entry
    (the condition by ==, the subname by identity, since Name has no
    __eq__ and names are interned) the image is x itself, and make_name
    is skipped."""
    if x.inst is None:
        return x
    _same_instance(pi.inst, x.inst)
    if pi.is_identity:
        return x
    memo = x.inst.store.act
    key = (pi, x)
    result = memo.get(key)
    if result is None:
        image = tuple([(act_condition(pi, cond), act_name(pi, sub))
                       for cond, sub in x.entries])
        result = memo[key] = x if image == x.entries else make_name(image)
    return result


def check_support(inst, support) -> frozenset:
    """Validate a support set against the instance bounds and cutoff."""
    support = frozenset(map(tuple, support))
    if not support <= inst.pair_set:
        p = min(support - inst.pair_set, key=repr)
        raise InvalidInstance(f"support pair {p!r} outside instance bounds")
    if len(support) > inst.support_cutoff:
        raise InvalidInstance(
            f"support has {len(support)} pairs, cutoff is {inst.support_cutoff}")
    return support


def act_support(pi: FiberPermutation, support) -> frozenset:
    return frozenset(pi(p) for p in support)


def in_fix(pi: FiberPermutation, support) -> bool:
    """True iff pi fixes every pair of the support pointwise."""
    if not isinstance(support, frozenset):  # check_support's output is one
        support = {tuple(p) for p in support}
    return support.isdisjoint(pi._map)


def fix_generators(inst, support) -> list:
    """Transpositions of two same-site fibers both avoiding the support;
    these generate the pointwise stabilizer within the group.  They are
    found once per validated support and kept in the instance's store;
    each call returns a new list, which the caller may change."""
    return list(_generators(inst, check_support(inst, support))[0])


def _generators(inst, support: frozenset) -> tuple:
    """fix_generators' stored generators for a validated support, as a
    tuple and as a frozenset."""
    table = inst.store.fix_generators
    entry = table.get(support)
    if entry is None:
        gens = []
        for site in inst.sites:
            free = [f for f in range(inst.fiber_count(site)) if (site, f) not in support]
            for a, b in itertools.combinations(free, 2):
                gens.append(FiberPermutation.transposition(inst, site, a, b))
        entry = table[support] = (tuple(gens), frozenset(gens))
    return entry


def is_symmetric_under(inst, x: Name, support) -> bool:
    """True iff every stabilizer generator of the support fixes x
    literally."""
    if x.inst is not None:
        _same_instance(inst, x.inst)
    return all(act_name(g, x) is x for g in fix_generators(inst, support))


def infer_min_support(inst, x: Name) -> frozenset | None:
    """The least support of x, or None if nothing within the cutoff works.

    Ties are broken by size, then by preferring witnesses drawn from the
    pairs the name itself mentions, then lexicographically.  (At small
    fiber counts a support can protect a row by blocking every other
    fiber of its site; the canonical witness is still the row's own
    pair, and this ordering selects it.)

    On a staged instance the least support of a name at stage s (see
    instances.in_stage) has no pair above s: a transposition above s
    moves no pair of the name's cells, so it fixes the name, and
    dropping such a pair from a support leaves a smaller support.
    """
    memo = inst.store.support
    if x in memo:
        return memo[x]
    own = {(cell[0], cell[1]) for cell in name_cells(x)}
    candidates = (
        combo for size in range(inst.support_cutoff + 1)
        for combo in sorted(itertools.combinations(inst.pairs, size),
                            key=lambda c: (sum(1 for p in c if p not in own), c)))
    memo[x] = next((frozenset(combo) for combo in candidates
                    if is_symmetric_under(inst, x, combo)), None)
    return memo[x]


def is_hs(inst, x: Name) -> bool:
    """Hereditarily symmetric: x has a support within the cutoff, and so
    does every hereditary subname.  Stage s's hereditarily symmetric
    class is `in_stage(x, s) and is_hs(inst, x)` (see instances)."""
    memo = inst.store.hs
    if x not in memo:
        memo[x] = infer_min_support(inst, x) is not None and all(
            is_hs(inst, sub) for _, sub in x.entries)
    return memo[x]


def _product_key(w: FiberPermutation, g: FiberPermutation) -> tuple:
    """The sorted moved pairs of w * g, which FiberPermutation would store
    as its `moved`, found without building the product."""
    wmap = w._map
    product = wmap.copy()     # right for every pair g fixes
    for src, mid in g.moved:
        product[src] = wmap.get(mid, mid)
    return tuple(sorted([item for item in product.items() if item[0] != item[1]]))


def generator_closure(gens: Iterable[FiberPermutation], max_len: int) -> list:
    """All products of at most max_len generators (including the identity),
    deduplicated, in a deterministic order.

    The products are found breadth first.  Each is looked up by its moved
    pairs first, so only a new one is built and validated.  On staged
    instances a product can overflow the per-stage moved bound (two
    transpositions compose to a 3-cycle); such products are not group
    elements and are skipped, the same way condition merges past the
    domain cutoff stay unrepresentable.  Each is validated once, then
    remembered.
    """
    gens = list(gens)
    if not gens:
        return []
    inst = gens[0].inst
    for g in gens:
        _same_instance(inst, g.inst)
    ident = FiberPermutation.identity(inst)
    words = {ident.moved: ident}
    oversized = set()
    frontier = [ident]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in gens:
                key = _product_key(w, g)
                if key in words or key in oversized:
                    continue
                try:
                    wg = FiberPermutation(inst, key)
                except InvalidInstance:
                    oversized.add(key)
                    continue
                words[wg.moved] = wg     # wg's own tuple, equal to key: no copy kept
                nxt.append(wg)
        frontier = nxt
    return sorted(words.values(), key=lambda p: (len(p.moved), p.moved))


def conjugate(pi: FiberPermutation, g: FiberPermutation) -> FiberPermutation:
    """pi g pi^-1, built in one step: it maps pi(src) to pi(dst) for every
    moved pair of g, so the conjugate of a transposition is the interned
    transposition of the two image pairs.  (Composing pairwise can pass
    through an oversized intermediate on staged instances; the conjugate
    itself always has g's per-stage moved counts.)"""
    _same_instance(pi.inst, g.inst)
    if len(g.moved) == 2:
        (site, a), (_, b) = pi(g.moved[0][0]), pi(g.moved[1][0])
        return FiberPermutation.transposition(g.inst, site, a, b)
    return FiberPermutation(g.inst, {pi(src): pi(dst) for src, dst in g.moved})


class ConjugationReport(namedtuple("ConjugationReport",
                                   ("ok", "support", "support_image", "witness"),
                                   defaults=(None,))):
    """Verdict of the conjugation law for one (permutation, support) pair."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def conjugation_check(inst, pi: FiberPermutation, support) -> ConjugationReport:
    """Verify that conjugating the stabilizer of E by pi gives exactly the
    stabilizer of pi(E), by their generator sets: every conjugate of a
    generator of fix(E) is a generator of fix(pi(E)), and every generator
    of fix(pi(E)) is such a conjugate.  Conjugation by pi is a group
    isomorphism, so equal generator sets give equal groups.  The witness
    is the first conjugate outside the generators of fix(pi(E)), else the
    first of those generators that no conjugate reaches.

    Each generator's conjugate by pi is built on first use and kept in the
    instance's store for the latest pi only (a new pi clears the table):
    every fix(E)'s generators are among fix(())'s, so the table holds at
    most that many.
    """
    support = check_support(inst, support)
    _same_instance(inst, pi.inst)
    image = act_support(pi, support)   # the same size, so valid too
    held, conjugates = inst.store.conjugates
    if held != pi:
        conjugates.clear()
        inst.store.conjugates = (pi, conjugates)
    # a FiberPermutation is never falsy, so `or` builds only missing ones
    conjs = [conjugates.get(g) or conjugates.setdefault(g, conjugate(pi, g))
             for g in _generators(inst, support)[0]]
    targets, allowed = _generators(inst, image)
    reached = set(conjs)
    if reached == allowed:
        return ConjugationReport(True, support, image)
    witness = ([conj for conj in conjs if conj not in allowed]
               or [h for h in targets if h not in reached])[0]
    return ConjugationReport(False, support, image, witness)


class AssembleReport(namedtuple("AssembleReport", ("name", "hs", "member_supports",
                                                   "union_support", "certified"))):
    """Outcome of bundling a sequence of names into one set-name.

    member_supports holds each member's least support (None if absent).
    certified is the completeness route: every member has a support and
    the union of those supports fits under the cutoff, which is a sound
    but not necessary criterion.  hs is the exact verdict.
    """

    __slots__ = ()

    def __bool__(self):
        return self.hs


def assemble_sequence(inst, names: Iterable[Name]) -> AssembleReport:
    """Bundle names into the set-name pairing each with the maximum, and
    report whether the result is hereditarily symmetric."""
    names = list(names)
    assembled = set_name(inst, names)
    supports = tuple(infer_min_support(inst, t) for t in names)
    if all(s is not None for s in supports):
        union = frozenset().union(*supports) if supports else frozenset()
        certified = len(union) <= inst.support_cutoff
    else:
        union = None
        certified = False
    return AssembleReport(
        name=assembled,
        hs=is_hs(inst, assembled),
        member_supports=supports,
        union_support=union,
        certified=certified,
    )
