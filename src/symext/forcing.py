"""A decidable forcing relation for the Eq/Mem/Not/And fragment.

Two independent modes are implemented:

* semantic (the reference): p forces phi iff phi is true in the
  interpretation by every generic filter containing p.  The 2^cells
  filters are indexed by their bits read as a binary number, cell 0 the
  most significant (the order `generic_filters` yields them); a set of
  filters is one int over the indices, and no filter is ever built.
  `ext(c)` is the set of filters containing condition c; `part(x)`
  partitions all filters by the value name x takes, built from the
  parts of x's subnames and the ext masks of its conditions.  An atom's
  truth mask is read off the parts of its two sides, negation and
  conjunction combine their parts' masks, and p forces phi iff
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

Each recursive table is one int over the 3^cells condition codes (bit
c set iff the condition coded c is in the set).  Density below p is
evaluated for every p at once by two zeta transforms over the code
lattice (which codes have an extension in the set; which have an
extension that has none), the same relation as the literal double loop
at a few shift-and-mask passes per cell.  No filter mask is read
anywhere on this path, and the semantic path never reads the code
tables, so the two modes stay genuinely independent; their agreement
(exact when conditions may grow total) is an acceptance criterion, not
an assumption.

`forcing_vectors(conds, mode)` checks that a list of conditions belongs
to one instance and indexes it once (semantic: its ext masks; recursive:
its codes), and returns a function from phi to an int whose bit i is
set iff conds[i] forces phi.  Each vector is one gather over phi's mask
or table; the two branches share no helper, and no space keeps anything
about a caller's list.  `forces(p, phi, mode)` reads p's one mask or bit
directly; TestForcingVector checks that the two agree bit for bit.

Both modes check that a formula's names belong to the conditions'
instance once, when its mask or table is first built in that instance's
space; a later hit in the same space implies the check passed.

`parse_formula` reads the prefix text syntax and owns its nesting bound:
parentheses nested over `_MAX_NESTING` = 256 deep are a ParseError, so
reading, resolving and forcing a formula stay within Python's stack.

Quantifiers are deliberately absent: every argument that needs one is
run as an explicit finite enumeration by the kernels.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .core import Condition, _same_instance
from .errors import InvalidInstance, ParseError
from .names import EMPTY_HF, Name, hf
from .symmetry import FiberPermutation, act_condition, act_name


class _Connective:
    """Equality and hash that read the type, so Eq(x, y) and Mem(x, y),
    or a formula and the plain tuple of its operands, differ as dict
    keys; tuple has its own !=, so __ne__ is written too."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and tuple.__eq__(self, other))

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))


class Eq(_Connective, namedtuple("Eq", ("left", "right"))):     # Name, Name
    __slots__ = ()


class Mem(_Connective, namedtuple("Mem", ("left", "right"))):   # Name, Name
    __slots__ = ()


class Not(_Connective, namedtuple("Not", ("body",))):           # Formula
    __slots__ = ()


class And(_Connective, namedtuple("And", ("left", "right"))):   # Formula, Formula
    __slots__ = ()


Formula = Eq | Mem | Not | And


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


def _check_formula(inst, phi: Formula) -> None:
    """Raise MismatchedInstance unless phi's names belong to inst (or none)."""
    for nm in formula_names(phi):
        if nm.inst is not None:
            _same_instance(inst, nm.inst)


def _check_conditions(inst, conds) -> None:
    """Raise MismatchedInstance unless every condition belongs to inst."""
    for p in conds:
        if p.inst is not inst:
            _same_instance(inst, p.inst)


def act_formula(pi: FiberPermutation, phi: Formula) -> Formula:
    if isinstance(phi, Eq):
        return Eq(act_name(pi, phi.left), act_name(pi, phi.right))
    if isinstance(phi, Mem):
        return Mem(act_name(pi, phi.left), act_name(pi, phi.right))
    if isinstance(phi, Not):
        return Not(act_formula(pi, phi.body))
    return And(act_formula(pi, phi.left), act_formula(pi, phi.right))


# At the recursive limit, 12 cells, a forcing_vectors function over the
# 289 conditions of at most 2 cells read one vector in 0.07 ms once phi's
# table was built (two sites, 3 fibers, 2 slots; 2-CPU machine, CPython 3.11)
_SPACE_CELLS = 12
# At the semantic limit, 14 cells, the truth masks of the CLI's 20-formula
# default pool took 0.004 s and 0.3 MB (one site, 7 fibers, 2 slots; 2-CPU
# machine, CPython 3.11); each mask has 2^cells bits.
_FILTER_CELLS = 14


def check_size(inst, *modes) -> None:
    """Raise InvalidInstance, with the cost, when the instance is too
    large for one of the forcing modes named ("recursive", "semantic")."""
    n = len(inst.cells)
    if "recursive" in modes and n > _SPACE_CELLS:
        raise InvalidInstance(
            f"recursive forcing tables hold 3^cells codes, at most "
            f"3^{_SPACE_CELLS} = {3 ** _SPACE_CELLS}; instance has {n} "
            f"cells (3^{n} codes)")
    if "semantic" in modes and n > _FILTER_CELLS:
        raise InvalidInstance(
            f"semantic forcing masks hold a bit per generic filter, at most "
            f"2^{_FILTER_CELLS} = {1 << _FILTER_CELLS}; instance has {n} "
            f"cells (2^{n} filters)")


# The recursive mode works on an integer encoding of the condition
# lattice: cell i carries trit 0 (unset), 1 (bit 0) or 2 (bit 1), so a
# condition is a base-3 code and extension is digitwise refinement.  A
# set of codes is one int, bit c set iff code c is in the set.

class _Space:
    def __init__(self, inst):
        check_size(inst, "recursive")
        size = 3 ** len(inst.cells)
        self.inst = inst
        self.pow3 = [3 ** i for i in range(len(inst.cells))]
        # zero[i]: the codes whose trit i is 0, a run of 3^i ones every
        # 3^(i+1) bits, repeated by doubling
        self.zero = []
        full = (1 << size) - 1
        for p in self.pow3:
            mask, length = (1 << p) - 1, 3 * p
            while length < size:
                mask |= mask << length
                length *= 2
            self.zero.append(mask & full)
        # The limits bound set cells on prefixes of the site order, so on
        # prefixes of the cells: counts[s] holds the codes over the cells
        # so far with s set trits that meet every limit ending there.
        per_site = [f * s for f, s in zip(inst.fiber_counts, inst.slot_counts)]
        ends = {sum(per_site[:k]): bound for k, bound in inst.limits}
        counts = [1]
        for i, p in enumerate(self.pow3):
            counts = [a | (b | b << p) << p
                      for a, b in zip(counts + [0], [0] + counts)]
            bound = ends.get(i + 1)
            if bound is not None:
                del counts[bound + 1:]
        self.valid = 0
        for mask in counts:
            self.valid |= mask
        self.nbytes = (size + 7) // 8
        self._eq: dict = {}
        self._mem: dict = {}
        self._rec: dict = {}
        self._codes: dict = {}

    def code_of(self, cond: Condition) -> int:
        code = self._codes.get(cond)
        if code is None:
            index = self.inst.cell_index
            pow3 = self.pow3
            code = sum((bit + 1) * pow3[index[cell]] for cell, bit in cond.items)
            self._codes[cond] = code
        return code

    def up(self, x: int) -> int:
        """The codes with some extension in x: the zeta transform over
        the trit lattice (Bjorklund, Husfeldt, Kaski, Koivisto, "Fourier
        meets Mobius", STOC 2007), one pass per cell."""
        for p, zero in zip(self.pow3, self.zero):
            x |= (x >> p | x >> 2 * p) & zero
        return x

    def above(self, cond: Condition) -> int:
        """The valid codes extending cond."""
        mask = self.valid
        index = self.inst.cell_index
        for cell, bit in cond.items:
            i = index[cell]
            mask &= self.zero[i] << (bit + 1) * self.pow3[i]
        return mask

    def dense(self, member: int) -> int:
        """The p below which member is dense: every valid extension of p
        has a valid extension in member."""
        valid = self.valid
        return valid & ~self.up(valid & ~self.up(valid & member))

    def eq_table(self, x: Name, y: Name) -> int:
        if y.key < x.key:
            x, y = y, x
        key = (x, y)
        cached = self._eq.get(key)
        if cached is not None:
            return cached
        result = self.valid
        for a, b in ((x, y), (y, x)):
            for cond, sub in a.entries:
                result &= self.dense(~self.above(cond) | self.mem_table(sub, b))
        self._eq[key] = result
        return result

    def mem_table(self, x: Name, y: Name) -> int:
        key = (x, y)
        cached = self._mem.get(key)
        if cached is not None:
            return cached
        member = 0
        for cond, sub in y.entries:
            member |= self.above(cond) & self.eq_table(x, sub)
        result = self.dense(member)
        self._mem[key] = result
        return result

    def rec_table(self, phi: Formula) -> int:
        """The codes of the conditions that force phi."""
        cached = self._rec.get(phi)
        if cached is not None:
            return cached
        _check_formula(self.inst, phi)
        if isinstance(phi, Eq):
            result = self.eq_table(phi.left, phi.right)
        elif isinstance(phi, Mem):
            result = self.mem_table(phi.left, phi.right)
        elif isinstance(phi, Not):
            result = self.valid & ~self.up(self.rec_table(phi.body))
        elif isinstance(phi, And):
            result = self.rec_table(phi.left) & self.rec_table(phi.right)
        else:
            raise TypeError(f"not a formula: {phi!r}")
        self._rec[phi] = result
        return result


def _space(inst) -> _Space:
    if inst.store.space is None:
        inst.store.space = _Space(inst)
    return inst.store.space


class _FilterSpace:
    def __init__(self, inst):
        check_size(inst, "semantic")
        n = len(inst.cells)
        self.inst = inst
        full = self.full = (1 << (1 << n)) - 1
        # Cell i is bit n-1-i of the index, so the filters giving it bit 1
        # form runs of 2^(n-1-i) indices, alternating with runs giving 0.
        self._bit_masks = {}
        for i, cell in enumerate(inst.cells):
            run = 1 << (n - 1 - i)
            ones = (((1 << run) - 1) << run) * (full // ((1 << 2 * run) - 1))
            self._bit_masks[cell] = (full ^ ones, ones)
        self._truth: dict = {}
        self._ext: dict = {}
        self._part: dict = {}

    def truth(self, phi: Formula) -> int:
        """The filters under which phi holds."""
        mask = self._truth.get(phi)
        if mask is None:
            _check_formula(self.inst, phi)
            if isinstance(phi, Not):
                mask = self.full & ~self.truth(phi.body)
            elif isinstance(phi, And):
                mask = self.truth(phi.left) & self.truth(phi.right)
            elif isinstance(phi, Eq):
                # the classes of a part are disjoint: a sum is their union
                right = self.part(phi.right)
                mask = sum(m & right.get(v, 0) for v, m in self.part(phi.left).items())
            elif isinstance(phi, Mem):
                left = self.part(phi.left)
                mask = sum(m & left.get(v, 0)
                           for u, m in self.part(phi.right).items() for v in u)
            else:
                raise TypeError(f"not a formula: {phi!r}")
            self._truth[phi] = mask
        return mask

    def part(self, x: Name) -> dict:
        """Each HF value x takes, mapped to the mask of the filters under
        which it takes it; entry (c, s) adds s's value to x's under c."""
        classes = self._part.get(x)
        if classes is None:
            classes = {EMPTY_HF: self.full}
            for cond, sub in x.entries:
                ext = self.ext(cond)
                for w, m_w in self.part(sub).items():
                    m = ext & m_w
                    if not m:
                        continue
                    split = {}
                    for v, m_v in classes.items():
                        inside = m_v & m
                        if inside:
                            u = hf((*v, w))
                            split[u] = split.get(u, 0) | inside
                        if inside != m_v:
                            split[v] = split.get(v, 0) | m_v ^ inside
                    classes = split
            self._part[x] = classes
        return classes

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
    if inst.store.filter_space is None:
        inst.store.filter_space = _FilterSpace(inst)
    return inst.store.filter_space


def forcing_vectors(conds: Sequence[Condition], mode: str = "semantic"):
    """The forcing verdicts over a list of conditions of one instance, in
    the requested mode, as a function from a formula phi to an int whose
    bit i is set iff conds[i] forces phi.  The list is checked and
    indexed here, once, so the function answers for the list as it is
    now; each call looks phi's mask or table up once and reads it at
    every condition in one pass."""
    if mode not in ("semantic", "recursive"):
        raise ValueError(f"unknown mode {mode!r}")
    if not conds:
        return lambda phi: 0
    inst = conds[0].inst
    _check_conditions(inst, conds)
    if mode == "semantic":
        fs = _filter_space(inst)
        exts = [fs.ext(p) for p in reversed(conds)]

        def vector(phi):
            bad = fs.full & ~fs.truth(phi)
            return int("".join(["0" if m & bad else "1" for m in exts]), 2)
    else:
        sp = _space(inst)
        codes = [sp.code_of(p) for p in reversed(conds)]

        def vector(phi):
            table = sp.rec_table(phi).to_bytes(sp.nbytes, "little")
            return int("".join(["1" if table[c >> 3] >> (c & 7) & 1 else "0"
                                for c in codes]), 2)
    return vector


def forces(p: Condition, phi: Formula, mode: str = "semantic") -> bool:
    """Decide whether p forces phi, in the requested mode, from p's one
    ext mask or code."""
    if mode == "semantic":
        fs = _filter_space(p.inst)
        return not fs.ext(p) & ~fs.truth(phi)
    if mode == "recursive":
        sp = _space(p.inst)
        return bool(sp.rec_table(phi) >> sp.code_of(p) & 1)
    raise ValueError(f"unknown mode {mode!r}")


def _separating_filter(p: Condition, phi: Formula) -> list | None:
    """The bits of the first generic filter (in `generic_filters` order)
    that contains p and under which phi fails, one per cell; None when p
    forces phi."""
    fs = _filter_space(p.inst)
    bad = fs.ext(p) & ~fs.truth(phi)
    if not bad:
        return None
    index = (bad & -bad).bit_length() - 1
    return [int(b) for b in format(index, f"0{len(p.inst.cells)}b")]


class LemmaReport(namedtuple("LemmaReport", ("equal", "witness"), defaults=(None,))):
    """Whether both sides of the equivariance law agree, in both modes,
    with a witness when anything disagrees (which would be an engine
    defect)."""

    __slots__ = ()

    def __bool__(self):
        return self.equal


def lemma_disagreement(ls, rs, lr, rr):
    """Where the symmetry lemma fails, from forcing of the formula at the
    condition (ls, lr: semantic, recursive) and of the relabeled formula
    at the relabeled condition (rs, rr): the two sides differ in a mode,
    or the modes differ on the left side.  The four are bools for one
    condition, or bit vectors over many, and so is the result."""
    return (ls ^ rs) | (lr ^ rr) | (ls ^ lr)


def symmetry_lemma_check(pi: FiberPermutation, p: Condition, phi: Formula) -> LemmaReport:
    """Compare forcing of phi at p with forcing of the relabeled formula
    at the relabeled condition, in both modes."""
    pp, pphi = act_condition(pi, p), act_formula(pi, phi)
    ls = forces(p, phi, "semantic")
    rs = forces(pp, pphi, "semantic")
    lr = forces(p, phi, "recursive")
    rr = forces(pp, pphi, "recursive")
    equal = not lemma_disagreement(ls, rs, lr, rr)
    witness = None
    if not equal:
        witness = {"condition": p.to_obj(), "relabeled": pp.to_obj()}
        if ls != rs:
            side_cond, side_phi = (pp, pphi) if ls else (p, phi)
            witness["separating_filter"] = _separating_filter(side_cond, side_phi)
    return LemmaReport(equal, witness)


# ------------------------------------------------------------------
# Prefix text syntax: (eq t t) (mem t t) (not f) (and f f); any other
# head is a name term handed to the resolver.

# the deepest parenthesis nesting of a formula, connectives and name
# terms together: a (not ...) tower 328 deep still runs the forcing
# suites from run_checks, one 329 deep overflows Python's recursion
# limit (a (set ...) tower at 490); the margin is for the caller's frames
_MAX_NESTING = 256
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _read(tokens, pos, depth=1):
    if pos >= len(tokens):
        raise ParseError("unexpected end of formula")
    tok = tokens[pos]
    if tok == "(":
        if depth > _MAX_NESTING:
            raise ParseError(f"formula nests more than {_MAX_NESTING} deep")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read(tokens, pos, depth + 1)
            items.append(node)
        if pos >= len(tokens):
            raise ParseError("missing ')'")
        return tuple(items), pos + 1
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def parse_formula(text: str, resolve) -> Formula:
    """Parse the prefix syntax; `resolve` turns a name term (a token or a
    tuple tree) into a Name; nesting past _MAX_NESTING is a ParseError."""
    tokens = _TOKEN.findall(text)
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

