"""Finite forcing posets: conditions, the extension order, generic filters.

An instance fixes the ambient finite context: a poset of sites, fiber
and slot counts per site, cumulative condition domain bounds, and a
support size cutoff.  Cells are (site, fiber, slot) triples.  A
condition is a finite partial bit assignment on cells; the empty
condition is the maximum of the order, and p extends q when p's
assignment is a super-map of q's.
With the default domain cutoff (the full cell count) the atoms of the
order are the total assignments, and generic filters are exactly their
up-closures.

A flat instance has the same fiber and slot counts at every site and one
domain cutoff over all cells.  A staged instance is a chain of stages
with an increasing list of sizes; fiber and slot counts vary per stage
and condition domains obey a per-stage cumulative bound instead.

Everything here is immutable after construction and all operations are
pure functions.  Poset, Compat, the formulas and the lemma, conjugation,
assembly and min-onto reports are namedtuple subclasses with empty
__slots__; Instance, which needs cached properties and still refuses new
attributes, is frozen by hand.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cached_property
from operator import attrgetter

from .errors import InvalidInstance, MismatchedInstance

Cell = tuple  # (site, fiber, slot)


def _transitive_reflexive_closure(elements, pairs):
    rel = {(x, x) for x in elements}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


class Poset(namedtuple("Poset", ("elements", "relation"))):
    """A finite poset given by its elements and the full order relation.

    The relation must contain every reflexive pair and be antisymmetric
    and transitive; use :meth:`from_pairs` to build from a bare set of
    comparabilities (it closes the relation first, so cycles surface as
    antisymmetry violations).  The elements are kept sorted and the
    relation as a frozenset.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, elements, relation):
        elems = tuple(sorted(set(elements)))
        if len(elems) != len(tuple(elements)):
            raise InvalidInstance("poset elements must be distinct")
        if not elems:
            raise InvalidInstance("poset needs at least one element")
        rel = frozenset((x, y) for x, y in relation)
        known = set(elems)
        for x, y in rel:
            if x not in known or y not in known:
                raise InvalidInstance(f"relation pair {(x, y)!r} uses unknown elements")
        for x in elems:
            if (x, x) not in rel:
                raise InvalidInstance(f"order must be reflexive: missing {(x, x)!r}")
        for x, y in rel:
            if x != y and (y, x) in rel:
                raise InvalidInstance(f"order must be antisymmetric: {x!r} and {y!r} form a cycle")
        for x, y in rel:
            for a, b in rel:
                if a == y and (x, b) not in rel:
                    raise InvalidInstance(f"order must be transitive: missing {(x, b)!r}")
        return super().__new__(cls, elems, rel)

    @classmethod
    def from_pairs(cls, elements, pairs=()):
        elements = tuple(elements)
        return cls(elements, frozenset(_transitive_reflexive_closure(elements, pairs)))

    @classmethod
    def antichain(cls, elements):
        return cls.from_pairs(elements)

    @classmethod
    def chain(cls, elements):
        elements = tuple(elements)
        return cls.from_pairs(elements, zip(elements, elements[1:]))

    def leq(self, x, y) -> bool:
        return (x, y) in self.relation

    def downset(self, z) -> frozenset:
        return frozenset(x for x in self.elements if self.leq(x, z))

    def __repr__(self):
        strict = sorted((x, y) for x, y in self.relation if x != y)
        return f"Poset({list(self.elements)!r}, {strict!r})"


class Store:
    """Everything built for one instance: the name registry and the memos
    of names, supports, the group action and the forcing modes.  It lives
    on the instance and is freed with it; its keys leave the instance out."""

    def __init__(self):
        self.names = {}           # make_name: entries -> the interned Name
        self.checks = {}          # check_name: HF -> Name
        self.interpret = {}       # interpret: (Name, GenericFilter) -> HF
        self.transpositions = {}  # (site, a, b) -> FiberPermutation
        self.fix_generators = {}  # fix_generators: support -> its generators, tuple and set
        self.conjugates = (None, {})  # conjugation_check: (latest pi, gen -> conjugate)
        self.act = {}             # act_name: (FiberPermutation, Name) -> Name
        self.support = {}         # infer_min_support: Name -> support
        self.hs = {}              # is_hs: Name -> bool
        # these serve repeated one-shot kernel calls (criterion 4: 230,532 swap_kernel
        # calls, 647,490 and 230,525 hits); a CLI run looks them up once per kernel
        # key (swap-3fiber: 168 and 60 times) and again per failing unit's witness
        self.name_checks = {}     # kernels: (transposition, Name) -> (fixed, disjoint)
        self.swap_names = {}      # swap_kernel: support -> its default (label, Name) list
        self.family = None        # canonical_family
        self.space = None         # forcing._Space
        self.filter_space = None  # forcing._FilterSpace


class Instance:
    """The ambient context of a forcing poset.

    Each site carries its own fiber and slot counts.  limits is a list of
    cumulative domain bounds: a pair (k, bound) lets a condition keep at
    most bound cells on the first k sites; the last pair covers every
    site, so its bound is the domain cutoff.  moved_bounds gives, per
    site, how many fibers a group element may move there.  support_cutoff
    bounds support sets.

    Build instances with `flat` or `staged`, which hold the two
    validators; kind records which one, and selects the shape of
    describe().  store holds what is built for the instance; equality,
    hash, repr and describe() ignore it.

    Instance is the one record that is not a namedtuple: it needs a
    __dict__ for its cached properties (store, cells, cell_index) yet
    must refuse new attributes, and a namedtuple subclass with a __dict__
    accepts any.  So it is frozen by hand, and compares, hashes and
    prints by _fields.  Its store is an ordinary attribute, freed with
    it; __weakref__ only lets a test watch that happen.
    """

    _fields = ("kind", "poset", "fiber_counts", "slot_counts", "support_cutoff",
               "limits", "moved_bounds")
    __slots__ = _fields + ("_hash", "__dict__", "__weakref__")
    _values = attrgetter(*_fields)

    def __init__(self, kind, poset, fiber_counts, slot_counts, support_cutoff,
                 limits, moved_bounds):
        if min(fiber_counts + slot_counts) < 1:
            raise InvalidInstance("fiber and slot bounds must be positive")
        if support_cutoff < 1:
            raise InvalidInstance("support cutoff must be positive")
        if min(bound for _, bound in limits) < 1:
            raise InvalidInstance("domain cutoff must be positive")
        values = (kind, poset, fiber_counts, slot_counts, support_cutoff, limits,
                  moved_bounds)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        # computed once: conditions, filters and permutations hash their
        # instance on construction
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Instance is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Instance is frozen")

    def __eq__(self, other):
        if type(other) is not Instance:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"Instance({body})"

    @classmethod
    def flat(cls, poset: Poset, fibers: int, slots: int, support_cutoff: int,
             domain_cutoff: int | None = None) -> "Instance":
        """A site poset with the same fiber and slot counts at every site
        and one domain cutoff over all cells (None means the full cell
        count, i.e. conditions may be total).

        The validator rejects any instance on which some admissible
        support would pointwise-stabilize only the identity: a support of
        size c can spoil transpositions at floor(c/(fibers-1)) sites at
        worst, so we need support_cutoff < sites * (fibers - 1).
        """
        k = len(poset.elements)
        if domain_cutoff is None:
            domain_cutoff = k * fibers * slots
        inst = cls("flat", poset, (fibers,) * k, (slots,) * k, support_cutoff,
                   ((k, domain_cutoff),), (fibers,) * k)
        room = k * (fibers - 1)
        if fibers < 2 or support_cutoff >= room:
            raise InvalidInstance(
                "trivial-group exclusion: a support of size "
                f"{support_cutoff} can spoil every fiber transposition "
                f"(need fibers >= 2 and support cutoff < sites*(fibers-1) = {room})")
        return inst

    @classmethod
    def staged(cls, stage_sizes, support_cutoff: int) -> "Instance":
        """A product of stage posets with per-stage cumulative domain bounds.

        Stage i is site i, with stage_sizes[i] fibers and as many slots.
        A condition must keep, for every stage j, fewer than
        stage_sizes[j] cells at stages <= j, and a group element moves
        fewer fibers of a stage than its size.  Each stage needs
        support_cutoff + 2 fibers of headroom so no admissible support
        can spoil all of a stage's transpositions.
        """
        sizes = tuple(int(s) for s in stage_sizes)
        if not sizes:
            raise InvalidInstance("need at least one stage")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidInstance("stage sizes must be strictly increasing")
        if sizes[0] < support_cutoff + 2:
            raise InvalidInstance(
                f"stage size {sizes[0]} leaves no transposition headroom "
                f"(need every stage >= support_cutoff + 2 = {support_cutoff + 2})")
        below = tuple(s - 1 for s in sizes)
        limits = tuple((j + 1, bound) for j, bound in enumerate(below))
        return cls("staged", Poset.chain(range(len(sizes))), sizes, sizes,
                   support_cutoff, limits, below)

    @cached_property
    def store(self) -> Store:
        return Store()

    @property
    def sites(self) -> tuple:
        return self.poset.elements

    @cached_property
    def site_index(self) -> dict:
        return {z: i for i, z in enumerate(self.sites)}

    def _index(self, site) -> int:
        index = self.site_index.get(site)
        if index is None:
            raise InvalidInstance(f"site {site!r} outside instance bounds")
        return index

    def fiber_count(self, site) -> int:
        return self.fiber_counts[self._index(site)]

    def slot_count(self, site) -> int:
        return self.slot_counts[self._index(site)]

    def moved_bound(self, site) -> int:
        return self.moved_bounds[self._index(site)]

    @property
    def fibers(self) -> int:
        """The fiber count of the first site (of every site, when flat)."""
        return self.fiber_counts[0]

    @property
    def slots(self) -> int:
        """The slot count of the first site (of every site, when flat)."""
        return self.slot_counts[0]

    @property
    def domain_cutoff(self) -> int:
        return self.limits[-1][1]

    @cached_property
    def cells(self) -> tuple:
        return tuple((z, a, g)
                     for z, fibers, slots in zip(self.sites, self.fiber_counts,
                                                 self.slot_counts)
                     for a in range(fibers)
                     for g in range(slots))

    @cached_property
    def pairs(self) -> tuple:
        return tuple((z, a) for z, fibers in zip(self.sites, self.fiber_counts)
                     for a in range(fibers))

    @cached_property
    def pair_set(self) -> frozenset:
        return frozenset(self.pairs)

    @cached_property
    def cell_index(self) -> dict:
        return {cell: i for i, cell in enumerate(self.cells)}

    def cell_ok(self, cell) -> bool:
        return cell in self.cell_index

    @cached_property
    def _min_limit(self) -> int:
        # conditions this small meet every limit
        return min(bound for _, bound in self.limits)

    def condition_violation(self, items) -> str | None:
        if len(items) <= self._min_limit:
            return None
        counts = [0] * len(self.sites)
        index = self.site_index
        for (site, _, _), _ in items:
            counts[index[site]] += 1
        for k, bound in self.limits:
            kept = sum(counts[:k])
            if kept > bound:
                return (f"condition keeps {kept} cells on the first {k} of "
                        f"{len(counts)} sites, bound is {bound}")
        return None

    def describe(self) -> dict:
        if self.kind == "staged":
            return {
                "kind": "staged",
                "stage_sizes": list(self.fiber_counts),
                "support_cutoff": self.support_cutoff,
            }
        return {
            "kind": "flat",
            "elements": list(self.sites),
            "leq": sorted([list(p) for p in self.poset.relation if p[0] != p[1]]),
            "fibers": self.fibers,
            "slots": self.slots,
            "support_cutoff": self.support_cutoff,
            "domain_cutoff": self.domain_cutoff,
        }


def _same_instance(a, b):
    if a is not b and a != b:
        raise MismatchedInstance(f"{a!r} vs {b!r}")


class Condition:
    """A finite partial bit assignment on the instance's cells.

    items, its cell-sorted tuple of (cell, bit) pairs, is its only form:
    equality, hashing, to_obj and every lookup read it.  The empty
    condition is the maximum.
    """

    __slots__ = ("inst", "items", "_hash")

    def __init__(self, inst, assignment=()):
        if isinstance(assignment, Mapping):
            assignment = assignment.items()
        seen = {}
        for cell, bit in assignment:
            cell = tuple(cell)
            if not inst.cell_ok(cell):
                raise InvalidInstance(f"cell {cell!r} outside instance bounds")
            if bit not in (0, 1):
                raise InvalidInstance(f"bit for cell {cell!r} must be 0 or 1")
            if seen.setdefault(cell, bit) != bit:
                raise InvalidInstance(f"conflicting bits for cell {cell!r}")
        items = tuple(sorted(seen.items()))
        violation = inst.condition_violation(items)
        if violation is not None:
            raise InvalidInstance(violation)
        self.inst = inst
        self.items = items
        self._hash = hash((inst, items))

    @classmethod
    def _trusted(cls, inst, items: tuple) -> "Condition":
        """Build from (cell, bit) items the caller has already checked and
        sorted by cell: every cell in the instance and distinct, every bit
        0 or 1, the domain within the limits."""
        self = cls.__new__(cls)
        self.inst = inst
        self.items = items
        self._hash = hash((inst, items))
        return self

    @classmethod
    def top(cls, inst):
        return cls(inst)

    def touched_fibers(self, site) -> frozenset:
        return frozenset(f for (s, f, _), _ in self.items if s == site)

    def extend_with(self, extra) -> "Condition":
        if isinstance(extra, Mapping):
            extra = extra.items()
        return Condition(self.inst, list(self.items) + [(tuple(c), b) for c, b in extra])

    def __len__(self):
        return len(self.items)

    def to_obj(self) -> list:
        """The JSON form every report writes: one [*cell, bit] per cell."""
        return [list(cell) + [bit] for cell, bit in self.items]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Condition):
            return NotImplemented
        return (self._hash == other._hash and self.items == other.items
                and (self.inst is other.inst or self.inst == other.inst))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.items:
            return "Condition(top)"
        body = ", ".join(f"{cell}:{bit}" for cell, bit in self.items)
        return f"Condition({body})"


class Compat(namedtuple("Compat", ("ok", "witness", "cutoff_exceeded", "conflict"),
                        defaults=(None, False, None))):
    """Outcome of a compatibility test.

    ok means the two conditions agree on their common domain.  witness
    is their union when it is representable; when the union would break
    the domain cutoff the conditions are still compatible but the
    witness is omitted and cutoff_exceeded is set.  conflict is the
    first cell they disagree on.
    """

    __slots__ = ()

    def __bool__(self):
        return self.ok


def _conflict(p: Condition, q: Condition) -> Cell | None:
    """The first cell of the shorter condition on which the two disagree;
    None when they agree on their common domain (the instance is the
    caller's to check)."""
    if p is q:
        return None
    small, large = (p, q) if len(p.items) <= len(q.items) else (q, p)
    get = dict(large.items).get
    for cell, bit in small.items:
        other = get(cell)
        if other is not None and other != bit:
            return cell
    return None


def compatible(p: Condition, q: Condition) -> Compat:
    """Test agreement on the common domain and produce the merge witness."""
    _same_instance(p.inst, q.inst)
    cell = _conflict(p, q)
    if cell is not None:
        return Compat(False, conflict=cell)
    # the two agree on their common cells, so a set drops each repeat
    merged = tuple(sorted(set(p.items + q.items)))
    if p.inst.condition_violation(merged) is not None:
        return Compat(True, witness=None, cutoff_exceeded=True)
    # both sides are valid conditions and the union meets the limits
    return Compat(True, witness=Condition._trusted(p.inst, merged))


class GenericFilter:
    """The up-closure of a total assignment.

    A condition belongs to the filter iff its assignment agrees with the
    total one everywhere on its domain.
    """

    __slots__ = ("inst", "bits", "_hash")

    def __init__(self, inst, bits):
        bits = tuple(bits)
        if len(bits) != len(inst.cells) or any(b not in (0, 1) for b in bits):
            raise InvalidInstance("need one bit per cell of the instance")
        self.inst = inst
        self.bits = bits
        self._hash = hash((inst, bits))

    @classmethod
    def from_assignment(cls, inst, mapping):
        return cls(inst, tuple(mapping[cell] for cell in inst.cells))

    def bit(self, cell) -> int:
        return self.bits[self.inst.cell_index[tuple(cell)]]

    def contains(self, cond: Condition) -> bool:
        _same_instance(self.inst, cond.inst)
        index = self.inst.cell_index
        bits = self.bits
        return all(bits[index[cell]] == bit for cell, bit in cond.items)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GenericFilter):
            return NotImplemented
        return self.bits == other.bits and (self.inst is other.inst or self.inst == other.inst)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GenericFilter({''.join(map(str, self.bits))})"


def generic_filters(inst, below: Condition | None = None) -> Iterator[GenericFilter]:
    """All generic filters containing `below`, i.e. all total assignments
    agreeing with it, in lexicographic order of the free cells."""
    if below is None:
        below = Condition.top(inst)
    _same_instance(inst, below.inst)
    fixed = dict(below.items)
    free = [cell for cell in inst.cells if cell not in fixed]
    index = inst.cell_index
    base = [0] * len(inst.cells)
    for cell, bit in below.items:
        base[index[cell]] = bit
    for combo in itertools.product((0, 1), repeat=len(free)):
        bits = list(base)
        for cell, bit in zip(free, combo):
            bits[index[cell]] = bit
        yield GenericFilter(inst, bits)


def iter_conditions(inst, max_dom: int | None = None) -> Iterator[Condition]:
    """All conditions with domain size at most max_dom (default: the
    instance cutoff), ordered by size, then cells, then bits.  The cells
    are in sorted order, so each combination's items already are."""
    limit = inst.domain_cutoff if max_dom is None else min(max_dom, inst.domain_cutoff)
    cells = inst.cells
    for k in range(limit + 1):
        for combo in itertools.combinations(cells, k):
            for bits in itertools.product((0, 1), repeat=k):
                items = tuple(zip(combo, bits))
                if inst.condition_violation(items) is None:
                    yield Condition._trusted(inst, items)
