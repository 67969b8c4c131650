"""Builders for the concrete constructions the engine checks.

The canonical name family of an instance:

* row names: for a pair (z, a), the name reading off which slots of row
  (z, a) carry bit 1.  Entries pair each slot ordinal with the single-cell
  condition setting that slot to 1, so relabeling the pair relabels the
  name and the interpretation is exactly {g : assignment((z,a),g) = 1}.
* site names: the set-name of all row names of one site.
* region names: the set-name of all row names over a subset of sites.
  Regions are compared by entry-set inclusion, the checkable finite
  shadow of the mapping direction between their interpretations (the
  larger region covers the smaller one); only explicitly given site
  subsets get region names.
* graph name: the set-name of pairs (site ordinal, site name), the
  internal graph of the site-to-site-name map.
* least names: for a pair, the name interpreting to the least slot of
  the row carrying 1, as a von Neumann ordinal, or to the slot bound as
  a sentinel when the row is all zero.

On staged instances row and site names are built per stage from
stage-local cells only, and the suffix chain bundles the rows of all
stages above a starting point, giving strictly shrinking entry sets.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .core import Condition, Instance, Poset
from .errors import InvalidInstance
from .names import (Name, check_name, make_name, name_cells, ordinal,
                    pair_name, set_name)

# the most sites of a flat instance, whose family names every site subset
MAX_SITES = 10
# the most cells of an instance a spec may ask for, checked before the
# instance is built: the canonical family builds one condition per cell.
# On a 2-CPU machine under CPython 3.11, parsing {"stages": [3, 127]}
# (16,138 cells, under the cap) takes 0.37 s of CPU and 34 MB, an
# embedding-only run of a flat antichain of 10 sites x 40 fibers x 40
# slots (16,000 cells) 1.0 s and 103 MB, and building [3, 800] (640,009
# cells) took 17.5 s and 718 MB
MAX_CELLS = 1 << 14
# the most cells a flat spec's least names may hold, also checked before
# the instance is built: a row's least name holds a condition of j + 1
# cells for each slot j, so sites x n x v(v+1)/2 in all.  An
# embedding-only run of 1 site x 3 fibers x 590 slots (523,035 cells)
# takes 0.9 s and 120 MB on the same machine, 1,000 slots (1,501,500
# cells) took 3.7 s and 380 MB
MAX_LEAST_CELLS = 1 << 19


def downset_embedding(poset: Poset) -> dict:
    """Each element mapped to its down-set; an order embedding into the
    subsets of the carrier."""
    return {z: poset.downset(z) for z in poset.elements}


def random_poset(rng) -> Poset:
    """A random poset: a random DAG on the first 1 to 8 of the letters a-h,
    closed reflexively and transitively."""
    k = rng.randint(1, 8)
    elems = list("abcdefgh"[:k])
    pairs = set()
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.35:
                pairs.add((elems[i], elems[j]))
    return Poset.from_pairs(elems, pairs)


def row_name(inst, site, fiber) -> Name:
    return make_name(
        (Condition(inst, {(site, fiber, g): 1}), check_name(inst, ordinal(g)))
        for g in range(inst.slot_count(site)))


def least_value_name(inst, site, fiber) -> Name:
    """Interprets to the least slot of the row carrying 1 (as an ordinal),
    or to the slot bound when the row is all zero: slot j belongs iff the
    row is zero on every slot up to j."""
    entries = []
    for j in range(inst.slot_count(site)):
        cond = Condition(inst, {(site, fiber, d): 0 for d in range(j + 1)})
        entries.append((cond, check_name(inst, ordinal(j))))
    return make_name(entries)


class NameFamily(namedtuple("NameFamily",
                            ("inst", "rows", "sites", "regions", "graph", "least"))):
    """The canonical names of an instance, keyed for reports: its
    Instance; rows and least map (site, fiber), sites a site and regions
    a frozenset of sites, to a Name; graph is a Name.  A staged family
    has empty regions and least.  Two families compare by value."""

    __slots__ = ()

    def members(self):
        for pair, nm in sorted(self.rows.items()):
            yield f"row:{pair[0]}:{pair[1]}", nm
        for site, nm in sorted(self.sites.items()):
            yield f"site:{site}", nm
        for region, nm in sorted(self.regions.items(), key=lambda kv: sorted(kv[0])):
            yield "region:" + "+".join(map(str, sorted(region))), nm
        yield "graph", self.graph
        for pair, nm in sorted(self.least.items()):
            yield f"least:{pair[0]}:{pair[1]}", nm


def canonical_family(inst: Instance) -> NameFamily:
    """Row, site and graph names; on a flat instance also the region name
    of every site subset and the least name of every row.  Row names of
    a staged instance use stage-local cells only, so each lives in its
    stage's condition poset."""
    if inst.store.family is not None:
        return inst.store.family
    flat = inst.kind == "flat"
    if flat and len(inst.sites) > MAX_SITES:
        raise InvalidInstance("canonical family builds all region names; "
                              f"instances are capped at {MAX_SITES} sites")
    # each row name is built once; the site, region and graph names are
    # built from these rows
    rows = {z: [row_name(inst, z, a) for a in range(inst.fiber_count(z))]
            for z in inst.sites}
    sites = {z: set_name(inst, rows[z]) for z in inst.sites}
    regions, least = {}, {}
    if flat:
        for k in range(len(inst.sites) + 1):
            for combo in itertools.combinations(inst.sites, k):
                regions[frozenset(combo)] = set_name(
                    inst, [nm for z in combo for nm in rows[z]])
        least = {(z, a): least_value_name(inst, z, a) for z in inst.sites
                 for a in range(inst.fiber_count(z))}
    # the graph pairs each site's index in the sorted site tuple with its name
    graph = set_name(inst, [pair_name(inst, check_name(inst, ordinal(i)), sites[z])
                            for i, z in enumerate(inst.sites)])
    inst.store.family = NameFamily(
        inst, {(z, a): nm for z in inst.sites for a, nm in enumerate(rows[z])},
        sites, regions, graph, least)
    return inst.store.family


def build_instance(poset: Poset, fibers: int, slots: int, support_cutoff: int,
                   domain_cutoff: int | None = None):
    """Validate the bounds, build the flat instance and its canonical
    family; the hs suite, not the build, checks the family's symmetry."""
    inst = Instance.flat(poset, fibers, slots, support_cutoff, domain_cutoff)
    return inst, canonical_family(inst)


def build_staged_instance(stage_sizes, support_cutoff: int):
    """The same for a staged instance and its per-stage family."""
    inst = Instance.staged(stage_sizes, support_cutoff)
    return inst, canonical_family(inst)


def name_stage(x: Name) -> int | None:
    """The least stage whose condition poset contains every condition in
    the name's closure; None when the name has no cells at all."""
    return max((cell[0] for cell in name_cells(x)), default=None)


def in_stage(x: Name, stage: int) -> bool:
    """True iff x lives at the stage; the stage's hereditarily symmetric
    class is the names x with in_stage(x, stage) and is_hs(inst, x)."""
    top = name_stage(x)
    return top is None or top <= stage


def chain_family(staged: Instance) -> list:
    """The suffix chain: for each starting stage, the set-name bundling
    every row name at that stage or above.  Entry sets shrink strictly
    along the chain, and interpretations shrink under every filter."""
    family = canonical_family(staged)
    out = []
    for start in staged.sites:
        members = [family.rows[(i, a)] for i in staged.sites if i >= start
                   for a in range(staged.fiber_count(i))]
        out.append(set_name(staged, members))
    return out
