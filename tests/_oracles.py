"""Independent reference implementations used to freeze expected values.

Everything here recomputes results from first principles over plain
dicts, tuples and frozensets, deliberately avoiding the package's
interning, memoization and table machinery, so a test comparing the two
paths is a genuine cross-check.
"""

import itertools

from symext import And, Eq, Mem, Not, row_name, set_name


def total_assignments(cells, fixed=None):
    """All total cell->bit dicts agreeing with `fixed`, lexicographic."""
    fixed = dict(fixed or {})
    free = [c for c in cells if c not in fixed]
    for combo in itertools.product((0, 1), repeat=len(free)):
        assign = dict(fixed)
        assign.update(zip(free, combo))
        yield assign


def site_name(inst, site):
    """The set-name of a site's row names, each row built afresh."""
    return set_name(inst, [row_name(inst, site, a)
                           for a in range(inst.fiber_count(site))])


def region_name(inst, sites):
    """The set-name of the row names of every site in `sites`."""
    return set_name(inst, [row_name(inst, z, a)
                           for z in sorted(sites)
                           for a in range(inst.fiber_count(z))])


def cond_holds(cond, assign):
    return all(assign[cell] == bit for cell, bit in cond.items)


def naive_interpret(name, assign):
    """Interpretation as nested frozensets."""
    return frozenset(naive_interpret(sub, assign)
                     for cond, sub in name.entries if cond_holds(cond, assign))


def hf_to_frozen(value):
    return frozenset(hf_to_frozen(e) for e in value)


def frozen_ordinal(n):
    out = frozenset()
    seen = [out]
    for _ in range(n):
        out = frozenset(seen)
        seen = seen + [out]
    return out


def naive_eval(phi, assign):
    if isinstance(phi, Eq):
        return naive_interpret(phi.left, assign) == naive_interpret(phi.right, assign)
    if isinstance(phi, Mem):
        return naive_interpret(phi.left, assign) in naive_interpret(phi.right, assign)
    if isinstance(phi, Not):
        return not naive_eval(phi.body, assign)
    if isinstance(phi, And):
        return naive_eval(phi.left, assign) and naive_eval(phi.right, assign)
    raise TypeError(phi)


def naive_forces(inst, p, phi):
    """Brute-force semantic forcing: truth under every total extending p."""
    return all(naive_eval(phi, assign)
               for assign in total_assignments(inst.cells, dict(p.items)))


def extends(p, q):
    """p extends q (p is stronger) when p's items include q's."""
    return set(q.items) <= set(p.items)


def group_closure(gens, identity):
    """The group the permutations gens generate: every product of them,
    identity included, found breadth first by plain compose; small
    groups only."""
    group, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = w.compose(g)
                if wg not in group:
                    group.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return group


def perm_cell(mapping, cell):
    site, fiber, slot = cell
    nsite, nfiber = mapping.get((site, fiber), (site, fiber))
    return (nsite, nfiber, slot)


def name_structure(name):
    """A name as nested frozensets of (condition items, substructure)."""
    return frozenset((cond.items, name_structure(sub)) for cond, sub in name.entries)


def naive_act_structure(mapping, name):
    """The permuted name, directly as a structure (no interning)."""
    return frozenset(
        (tuple(sorted((perm_cell(mapping, cell), bit) for cell, bit in cond.items)),
         naive_act_structure(mapping, sub))
        for cond, sub in name.entries)


def naive_min_support(inst, name, act_name_fn, fix_generators_fn):
    """Exhaustive support search, scanning sizes then plain lexicographic
    order; returns the set of ALL minimal-size supports so tie-break
    choices can be validated against it."""
    for size in range(inst.support_cutoff + 1):
        found = [frozenset(combo)
                 for combo in itertools.combinations(inst.pairs, size)
                 if all(act_name_fn(g, name) is name
                        for g in fix_generators_fn(inst, combo))]
        if found:
            return found
    return []


def naive_name_cells(name):
    """Every cell of every condition in the name's closure, by a fresh
    walk of the whole closure (no per-name memo)."""
    cells = set()
    seen = set()
    stack = [name]
    while stack:
        nm = stack.pop()
        if id(nm) in seen:
            continue
        seen.add(id(nm))
        for cond, sub in nm.entries:
            cells.update(cell for cell, _ in cond.items)
            stack.append(sub)
    return frozenset(cells)


def naive_conditions(inst):
    """Every condition of the instance, as a frozenset of (cell, bit)
    items, found by listing all partial assignments."""
    out = []
    for k in range(len(inst.cells) + 1):
        for combo in itertools.combinations(inst.cells, k):
            for bits in itertools.product((0, 1), repeat=k):
                items = tuple(zip(combo, bits))
                if inst.condition_violation(items) is None:
                    out.append(frozenset(items))
    return out


def naive_recursive_forces(inst, p, phi, memo=None):
    """The textbook forcing recursion over an explicit condition list,
    with "D is dense below p" read literally: every q extending p has
    some r extending q in D.  A condition extends another when its items
    include the other's.  Pass one memo dict to share work between calls
    on the same instance."""
    memo = {} if memo is None else memo
    conds = memo.get("conditions")
    if conds is None:
        conds = memo["conditions"] = naive_conditions(inst)

    def below(p):
        key = ("below", p)
        if key not in memo:
            memo[key] = [q for q in conds if p <= q]
        return memo[key]

    def dense_below(p, in_set):
        return all(any(in_set(r) for r in below(q)) for q in below(p))

    def f_eq(p, x, y):
        key = ("eq", p, x, y)
        if key not in memo:
            memo[key] = all(
                dense_below(p, lambda q: not frozenset(r.items) <= q or f_mem(q, z, b))
                for a, b in ((x, y), (y, x))
                for r, z in a.entries)
        return memo[key]

    def f_mem(p, x, y):
        key = ("mem", p, x, y)
        if key not in memo:
            memo[key] = dense_below(p, lambda q: any(
                frozenset(r.items) <= q and f_eq(q, x, z) for r, z in y.entries))
        return memo[key]

    def f(p, phi):
        if isinstance(phi, Eq):
            return f_eq(p, phi.left, phi.right)
        if isinstance(phi, Mem):
            return f_mem(p, phi.left, phi.right)
        if isinstance(phi, Not):
            return not any(f(q, phi.body) for q in below(p))
        if isinstance(phi, And):
            return f(p, phi.left) and f(p, phi.right)
        raise TypeError(phi)

    return f(frozenset(p.items), phi)
