"""A decidable forcing relation for the Eq/Mem/Not/And fragment.

Two independent modes are implemented:

* semantic (the reference): p forces phi iff phi evaluates true in the
  interpretation by every generic filter containing p.  The 2^cells
  filters of an instance are enumerated once, on the first semantic
  call, and indexed by their bits read as a binary number with cell 0
  the most significant (the order `generic_filters` yields them).  Each
  atomic formula is evaluated once per filter into a truth mask (bit i
  set iff it holds under filter i), negation and conjunction combine
  their parts' masks, and each condition gets an extension mask
  (bit i set iff filter i contains it), so p forces phi iff
  ext(p) & ~truth(phi) == 0.  An instance with more than
  `_FILTER_CELLS` = 14 cells (2^14 filters) is rejected before anything
  is built;
* recursive: the textbook recursion.  p forces x = y iff for every entry
  (r, z) of either side the set {q : q extends r implies q forces z in
  the other side} is dense below p; p forces x in y iff {q : some entry
  (r, z) of y has q extending r and q forcing x = z} is dense below p;
  p forces not-psi iff no extension of p forces psi; conjunction is
  componentwise.  Induction terminates because the rank sum drops at
  every atomic step.

Density below p is evaluated over the whole condition lattice of the
instance by two monotone sweeps (does some extension land in the set;
does that hold below every extension), which is the same relation as the
literal double loop but linear in the lattice.  No appeal to generic
filters is made anywhere on this path, and the semantic path never reads
the lattice tables, so the two modes stay genuinely independent; their
agreement (exact when conditions may grow total) is an acceptance
criterion, not an assumption.

Both modes check that a formula's names belong to the condition's
instance once, when its mask or table is first built in that instance's
space; a later hit in the same space implies the check passed.

Quantifiers are deliberately absent: every argument that needs one is
run as an explicit finite enumeration by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .core import Condition, GenericFilter, generic_filters, _same_instance
from .errors import InvalidInstance, MismatchedInstance, ParseError
from .names import Name, interpret
from .symmetry import FiberPermutation, act_condition, act_name


@dataclass(frozen=True)
class Eq:
    left: Name
    right: Name


@dataclass(frozen=True)
class Mem:
    left: Name
    right: Name


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


Formula = Union[Eq, Mem, Not, And]


def formula_names(phi: Formula) -> Iterator[Name]:
    if isinstance(phi, (Eq, Mem)):
        yield phi.left
        yield phi.right
    elif isinstance(phi, Not):
        yield from formula_names(phi.body)
    elif isinstance(phi, And):
        yield from formula_names(phi.left)
        yield from formula_names(phi.right)
    else:
        raise TypeError(f"not a formula: {phi!r}")


def formula_instance(phi: Formula):
    inst = None
    for nm in formula_names(phi):
        if nm.inst is None:
            continue
        if inst is None:
            inst = nm.inst
        elif nm.inst is not inst and nm.inst != inst:
            raise MismatchedInstance("formula names span two instances")
    return inst


def _check_formula(inst, phi: Formula) -> None:
    """Raise unless every name of phi belongs to inst (or to none)."""
    owner = formula_instance(phi)
    if owner is not None:
        _same_instance(inst, owner)


def act_formula(pi: FiberPermutation, phi: Formula) -> Formula:
    if isinstance(phi, Eq):
        return Eq(act_name(pi, phi.left), act_name(pi, phi.right))
    if isinstance(phi, Mem):
        return Mem(act_name(pi, phi.left), act_name(pi, phi.right))
    if isinstance(phi, Not):
        return Not(act_formula(pi, phi.body))
    return And(act_formula(pi, phi.left), act_formula(pi, phi.right))


def eval_formula(phi: Formula, filt: GenericFilter) -> bool:
    """Truth of phi in the interpretation by the filter."""
    if isinstance(phi, Eq):
        return interpret(phi.left, filt) is interpret(phi.right, filt)
    if isinstance(phi, Mem):
        return interpret(phi.left, filt) in interpret(phi.right, filt)
    if isinstance(phi, Not):
        return not eval_formula(phi.body, filt)
    if isinstance(phi, And):
        return eval_formula(phi.left, filt) and eval_formula(phi.right, filt)
    raise TypeError(f"not a formula: {phi!r}")


_SPACE_LIMIT = 600_000
# At the semantic limit, 14 cells, enumerating the 16,384 filters took
# 0.09 s, and the truth masks of the CLI's 20-formula default pool 3.6 s
# and 56 MB more peak memory (2-CPU machine, CPython 3.11); both about
# double with each further cell.
_FILTER_CELLS = 14


def check_size(inst, *modes) -> None:
    """Raise InvalidInstance, with the cost, when the instance is too
    large for one of the forcing modes named ("recursive", "semantic")."""
    n = len(inst.cells)
    if "recursive" in modes and 3 ** n > _SPACE_LIMIT:
        raise InvalidInstance(
            f"recursive forcing tables need 3^cells <= {_SPACE_LIMIT}; "
            f"instance has {n} cells")
    if "semantic" in modes and n > _FILTER_CELLS:
        raise InvalidInstance(
            f"semantic forcing enumerates 2^cells generic filters, at most "
            f"2^{_FILTER_CELLS} = {1 << _FILTER_CELLS}; instance has {n} "
            f"cells (2^{n} filters)")


# The recursive mode works on an integer encoding of the condition
# lattice: cell i carries trit 0 (unset), 1 (bit 0) or 2 (bit 1), so a
# condition is a base-3 code and extension is digitwise refinement.

_SPACES: dict = {}


class _Space:
    def __init__(self, inst):
        check_size(inst, "recursive")
        cells = inst.cells
        n = len(cells)
        size = 3 ** n
        self.inst = inst
        self.cells = cells
        self.n = n
        self.size = size
        self.pow3 = [3 ** i for i in range(n)]

        valid = bytearray(size)
        by_dom = [[] for _ in range(n + 1)]
        for code in range(size):
            items = self._items_of(code)
            if inst.condition_violation(items) is None:
                valid[code] = 1
                by_dom[len(items)].append(code)
        self.valid = valid
        # children first: larger domains are processed before smaller ones
        desc = []
        for k in range(n, -1, -1):
            desc.extend(by_dom[k])
        self.codes_desc = desc

        onestep = {}
        for code in desc:
            kids = []
            rem = code
            for i in range(n):
                if rem % 3 == 0:
                    for t in (1, 2):
                        child = code + t * self.pow3[i]
                        if valid[child]:
                            kids.append(child)
                rem //= 3
            onestep[code] = tuple(kids)
        self.onestep = onestep
        self._upsets: dict = {}
        self._eq: dict = {}
        self._mem: dict = {}
        self._rec: dict = {}
        self._codes: dict = {}

    def _items_of(self, code):
        items = []
        for i in range(self.n):
            t = code % 3
            code //= 3
            if t:
                items.append((self.cells[i], t - 1))
        return tuple(items)

    def code_of(self, cond: Condition) -> int:
        code = self._codes.get(cond)
        if code is None:
            index = self.inst.cell_index
            pow3 = self.pow3
            code = sum((bit + 1) * pow3[index[cell]] for cell, bit in cond.items)
            self._codes[cond] = code
        return code

    def upset(self, code: int) -> tuple:
        """Every valid condition extending the one encoded."""
        cached = self._upsets.get(code)
        if cached is not None:
            return cached
        acc = [code]
        rem = code
        for i in range(self.n):
            if rem % 3 == 0:
                p = self.pow3[i]
                acc.extend([c + t * p for c in acc for t in (1, 2)])
            rem //= 3
        result = tuple(c for c in acc if self.valid[c])
        self._upsets[code] = result
        return result

    def _dense_below(self, member: bytearray) -> bytearray:
        """For each p: is the encoded set dense below p (every extension
        of p has an extension inside the set)."""
        size = self.size
        reach = bytearray(size)
        dense = bytearray(size)
        onestep = self.onestep
        for c in self.codes_desc:
            kids = onestep[c]
            r = member[c]
            if not r:
                for k in kids:
                    if reach[k]:
                        r = 1
                        break
            reach[c] = r
            if r:
                d = 1
                for k in kids:
                    if not dense[k]:
                        d = 0
                        break
                dense[c] = d
        return dense

    def eq_table(self, x: Name, y: Name) -> bytearray:
        if y.key < x.key:
            x, y = y, x
        key = (x, y)
        cached = self._eq.get(key)
        if cached is not None:
            return cached
        result = bytearray([1]) * self.size
        for a, b in ((x, y), (y, x)):
            for cond, sub in a.entries:
                memt = self.mem_table(sub, b)
                member = bytearray([1]) * self.size
                for q in self.upset(self.code_of(cond)):
                    if not memt[q]:
                        member[q] = 0
                dense = self._dense_below(member)
                for i in range(self.size):
                    if not dense[i]:
                        result[i] = 0
        self._eq[key] = result
        return result

    def mem_table(self, x: Name, y: Name) -> bytearray:
        key = (x, y)
        cached = self._mem.get(key)
        if cached is not None:
            return cached
        member = bytearray(self.size)
        for cond, sub in y.entries:
            eqt = self.eq_table(x, sub)
            for q in self.upset(self.code_of(cond)):
                if eqt[q]:
                    member[q] = 1
        result = self._dense_below(member)
        self._mem[key] = result
        return result

    def rec_table(self, phi: Formula) -> bytearray:
        cached = self._rec.get(phi)
        if cached is not None:
            return cached
        if isinstance(phi, Eq):
            result = self.eq_table(phi.left, phi.right)
        elif isinstance(phi, Mem):
            result = self.mem_table(phi.left, phi.right)
        elif isinstance(phi, Not):
            body = self.rec_table(phi.body)
            result = bytearray(self.size)
            onestep = self.onestep
            for c in self.codes_desc:
                if not body[c] and all(result[k] for k in onestep[c]):
                    result[c] = 1
        elif isinstance(phi, And):
            left = self.rec_table(phi.left)
            right = self.rec_table(phi.right)
            result = bytearray(a and b for a, b in zip(left, right))
        else:
            raise TypeError(f"not a formula: {phi!r}")
        self._rec[phi] = result
        return result


def _space(inst) -> _Space:
    sp = _SPACES.get(inst)
    if sp is None:
        sp = _Space(inst)
        _SPACES[inst] = sp
    return sp


_FILTER_SPACES: dict = {}


class _FilterSpace:
    def __init__(self, inst):
        check_size(inst, "semantic")
        n = len(inst.cells)
        self.inst = inst
        self.filters = tuple(generic_filters(inst))
        full = self.full = (1 << len(self.filters)) - 1
        # Cell i is bit n-1-i of the index, so the filters giving it bit 1
        # form runs of 2^(n-1-i) indices, alternating with runs giving 0.
        self._bit_masks = {}
        for i, cell in enumerate(inst.cells):
            run = 1 << (n - 1 - i)
            ones = (((1 << run) - 1) << run) * (full // ((1 << 2 * run) - 1))
            self._bit_masks[cell] = (full ^ ones, ones)
        self._truth: dict = {}
        self._ext: dict = {}

    def truth(self, phi: Formula) -> int:
        """The filters under which phi holds; only atoms are evaluated
        filter by filter."""
        mask = self._truth.get(phi)
        if mask is None:
            _check_formula(self.inst, phi)
            if isinstance(phi, Not):
                mask = self.full & ~self.truth(phi.body)
            elif isinstance(phi, And):
                mask = self.truth(phi.left) & self.truth(phi.right)
            else:
                mask = 0
                for i, filt in enumerate(self.filters):
                    if eval_formula(phi, filt):
                        mask |= 1 << i
            self._truth[phi] = mask
        return mask

    def ext(self, cond: Condition) -> int:
        """The filters containing cond."""
        mask = self._ext.get(cond)
        if mask is None:
            mask = self.full
            bit_masks = self._bit_masks
            for cell, bit in cond.items:
                mask &= bit_masks[cell][bit]
            self._ext[cond] = mask
        return mask


def _filter_space(inst) -> _FilterSpace:
    fs = _FILTER_SPACES.get(inst)
    if fs is None:
        fs = _FilterSpace(inst)
        _FILTER_SPACES[inst] = fs
    return fs


def forces(p: Condition, phi: Formula, mode: str = "semantic") -> bool:
    """Decide whether p forces phi, in the requested mode."""
    if mode == "semantic":
        fs = _filter_space(p.inst)
        return not fs.ext(p) & ~fs.truth(phi)
    if mode == "recursive":
        sp = _space(p.inst)
        table = sp._rec.get(phi)
        if table is None:
            _check_formula(sp.inst, phi)
            table = sp.rec_table(phi)
        return bool(table[sp.code_of(p)])
    raise ValueError(f"unknown mode {mode!r}")


def _separating_filter(p: Condition, phi: Formula) -> Optional[GenericFilter]:
    """The first generic filter (in `generic_filters` order) that contains
    p and under which phi fails; None when p forces phi."""
    fs = _filter_space(p.inst)
    bad = fs.ext(p) & ~fs.truth(phi)
    if not bad:
        return None
    return fs.filters[(bad & -bad).bit_length() - 1]


@dataclass(frozen=True, eq=False)
class LemmaReport:
    """Both sides of the equivariance law, in both modes, with a witness
    when anything disagrees (which would be an engine defect)."""

    equal: bool
    left_semantic: bool
    right_semantic: bool
    left_recursive: bool
    right_recursive: bool
    witness: Optional[dict] = None

    def __bool__(self):
        return self.equal


def symmetry_lemma_check(pi: FiberPermutation, p: Condition, phi: Formula) -> LemmaReport:
    """Compare forcing of phi at p with forcing of the relabeled formula
    at the relabeled condition, in both modes."""
    return lemma_report(p, phi, act_condition(pi, p), act_formula(pi, phi))


def lemma_report(p: Condition, phi: Formula, pp: Condition,
                 pphi: Formula) -> LemmaReport:
    """The half of symmetry_lemma_check after relabeling: pp and pphi are
    the images of p and phi under one permutation.  A caller checking
    many (condition, formula) pairs can build each image once."""
    ls = forces(p, phi, "semantic")
    rs = forces(pp, pphi, "semantic")
    lr = forces(p, phi, "recursive")
    rr = forces(pp, pphi, "recursive")
    equal = ls == rs and lr == rr and ls == lr
    witness = None
    if not equal:
        witness = {"condition": list(p.items), "relabeled": list(pp.items)}
        if ls != rs:
            side_cond, side_phi = (pp, pphi) if ls else (p, phi)
            filt = _separating_filter(side_cond, side_phi)
            witness["separating_filter"] = list(filt.bits)
    return LemmaReport(equal, ls, rs, lr, rr, witness)


# ------------------------------------------------------------------
# Prefix text syntax: (eq t t) (mem t t) (not f) (and f f); any other
# head is a name term handed to the resolver.

def _tokenize(text):
    out = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _read(tokens, pos):
    if pos >= len(tokens):
        raise ParseError("unexpected end of formula")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read(tokens, pos)
            items.append(node)
        if pos >= len(tokens):
            raise ParseError("missing ')'")
        return tuple(items), pos + 1
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def parse_formula(text: str, resolve) -> Formula:
    """Parse the prefix syntax; `resolve` turns a name term (a token or a
    tuple tree) into a Name."""
    tokens = _tokenize(text)
    tree, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing tokens after formula")

    def build(node):
        if not isinstance(node, tuple) or not node:
            raise ParseError(f"expected a formula, got {node!r}")
        head = node[0]
        if head == "eq" and len(node) == 3:
            return Eq(resolve(node[1]), resolve(node[2]))
        if head == "mem" and len(node) == 3:
            return Mem(resolve(node[1]), resolve(node[2]))
        if head == "not" and len(node) == 2:
            return Not(build(node[1]))
        if head == "and" and len(node) == 3:
            return And(build(node[1]), build(node[2]))
        raise ParseError(f"unknown formula head {head!r}")

    return build(tree)


def format_formula(phi: Formula, label) -> str:
    """Render back to the prefix syntax; `label` maps a Name to a token."""
    if isinstance(phi, Eq):
        return f"(eq {label(phi.left)} {label(phi.right)})"
    if isinstance(phi, Mem):
        return f"(mem {label(phi.left)} {label(phi.right)})"
    if isinstance(phi, Not):
        return f"(not {format_formula(phi.body, label)})"
    return f"(and {format_formula(phi.left, label)} {format_formula(phi.right, label)})"
