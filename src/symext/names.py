"""The name calculus: hereditary names, canonical constructors, interpretation.

A name is a finite set of (condition, name) pairs.  Names are interned:
structurally equal names are one object, so name equality is `is` and
the group action can detect literal fixation cheaply.  Interpretation by
a generic filter lands in HF, the type of hereditarily finite sets,
which is interned the same way and therefore extensional by identity.

Names are interned per instance: the registry and the check-name and
interpretation memos live in the instance's store and are freed with
it.  HF sets belong to no instance, so their registry is global.  The
empty name is shared by every instance.  Interning is a pure cache
(same input, same handle).

Each name also carries the memo of its hereditary cell set, filled by
the first `name_cells` call.  That is safe because names are interned
and immutable: the cells a name mentions can never change, so the memo
lives on the name itself and is bounded by the name registry.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Condition, GenericFilter, _same_instance
from .errors import MismatchedInstance


class HF:
    """A hereditarily finite set; extensional, canonically ordered, interned."""

    __slots__ = ("elems", "key")

    def __contains__(self, other):
        return any(e is other for e in self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __repr__(self):
        if not self.elems:
            return "{}"
        return "{" + ", ".join(repr(e) for e in self.elems) + "}"

    def to_obj(self):
        return [e.to_obj() for e in self.elems]


_HF_REGISTRY: dict = {}


def hf(elems: Iterable[HF] = ()) -> HF:
    """The HF set with the given elements (normalized extensionally)."""
    uniq = []
    seen = set()
    for e in elems:
        if not isinstance(e, HF):
            raise TypeError(f"HF elements must be HF, got {e!r}")
        if id(e) not in seen:
            seen.add(id(e))
            uniq.append(e)
    uniq.sort(key=lambda e: e.key)
    tup = tuple(uniq)
    cached = _HF_REGISTRY.get(tup)
    if cached is not None:
        return cached
    obj = object.__new__(HF)
    obj.elems = tup
    obj.key = tuple(e.key for e in tup)
    _HF_REGISTRY[tup] = obj
    return obj


EMPTY_HF = hf()

_ORDINALS = [EMPTY_HF]


def ordinal(n: int) -> HF:
    """The von Neumann ordinal n."""
    if n < 0:
        raise ValueError("ordinals are non-negative")
    while len(_ORDINALS) <= n:
        _ORDINALS.append(hf(_ORDINALS))
    return _ORDINALS[n]


class Name:
    """A hereditary forcing name: a canonical set of (condition, name) pairs.

    rank is 1 + the largest subname rank (0 for the empty name); key is a
    structural sort key; inst is the owning instance, or None for the
    empty name, which is shared by every instance; _cells is the memo
    of name_cells, None until first asked.  Build names with make_name,
    which interns them.
    """

    __slots__ = ("entries", "rank", "key", "inst", "_cells")

    def __init__(self, entries: tuple, inst):
        self.entries = entries
        self.rank = 0 if not entries else 1 + max(s.rank for _, s in entries)
        self.key = (self.rank, tuple((c.items, s.key) for c, s in entries))
        self.inst = inst
        self._cells = None

    def __repr__(self):
        return f"Name(rank={self.rank}, entries={len(self.entries)})"

    def to_obj(self):
        return [[cond.to_obj(), sub.to_obj()] for cond, sub in self.entries]


EMPTY_NAME = Name((), None)


def make_name(entries: Iterable[tuple]) -> Name:
    """The name with the given (condition, name) entries, deduplicated and
    canonically ordered, interned in its instance's store."""
    inst = None
    canon = {}
    for cond, sub in entries:
        if not isinstance(cond, Condition) or not isinstance(sub, Name):
            raise TypeError("entries must be (Condition, Name) pairs")
        if inst is None:
            inst = cond.inst
        elif cond.inst is not inst and cond.inst != inst:
            raise MismatchedInstance("entry conditions span two instances")
        if sub.inst is not None and sub.inst is not inst and sub.inst != inst:
            raise MismatchedInstance("subname belongs to a different instance")
        canon[(cond, sub)] = None
    if inst is None:
        return EMPTY_NAME
    ordered = tuple(sorted(canon, key=lambda e: (e[0].items, e[1].key)))
    registry = inst.store.names
    obj = registry.get(ordered)
    if obj is None:
        obj = registry[ordered] = Name(ordered, inst)
    return obj


def check_name(inst, x: HF) -> Name:
    """The canonical name whose interpretation is x under every filter."""
    memo = inst.store.checks
    result = memo.get(x)
    if result is None:
        top = Condition.top(inst)
        result = memo[x] = make_name((top, check_name(inst, e)) for e in x)
    return result


def set_name(inst, names: Iterable[Name]) -> Name:
    """The name pairing each given name with the maximum condition; it
    interprets to the set of the members' interpretations."""
    top = Condition.top(inst)
    entries = []
    for nm in names:
        if nm.inst is not None and nm.inst is not inst and nm.inst != inst:
            raise MismatchedInstance("member name belongs to a different instance")
        entries.append((top, nm))
    return make_name(entries)


def pair_name(inst, x: Name, y: Name) -> Name:
    """The canonical name for the Kuratowski ordered pair of x and y."""
    return set_name(inst, [set_name(inst, [x]), set_name(inst, [x, y])])


def interpret(x: Name, filt: GenericFilter) -> HF:
    """Evaluate x by the filter: the set of interpretations of subnames
    whose condition lies in the filter, extensionally normalized."""
    if x.inst is not None:
        _same_instance(x.inst, filt.inst)
    memo = filt.inst.store.interpret
    key = (x, filt)
    value = memo.get(key)
    if value is None:
        value = memo[key] = hf(interpret(sub, filt)
                               for cond, sub in x.entries if filt.contains(cond))
    return value


def name_cells(x: Name) -> frozenset:
    """Every cell mentioned by a condition hereditarily in x; computed
    once per name and kept on it."""
    cells = x._cells
    if cells is None:
        own = frozenset(cell for cond, _ in x.entries for cell, _ in cond.items)
        cells = x._cells = own.union(*(name_cells(sub) for _, sub in x.entries))
    return cells
