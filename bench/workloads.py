"""The benchmark's workloads: one symext CLI invocation each, with the
unit counts and stdout digest that a correct run must reproduce.

BENCHMARK.json gates only reference-all and staged-all.  forcing-10cell
and swap-3fiber stay runnable by name: their run-to-run spread on the
shared 2-CPU machine was above the 0.25 bound (see README.md).

Unit counts are derived here by the benchmark's own enumeration where
that is cheap (conditions by domain size, admissible swap tuples), and
pinned otherwise.  Digests were taken at the commit that introduced the
benchmark, with the default seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb
from typing import Optional

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec_file: Optional[str]   # a spec shipped in the repo, or None
    spec: Optional[dict]       # a spec the benchmark writes itself
    suite: str
    max_dom: Optional[int]
    counts: dict               # suite -> units expected, in output order
    digest: str                # sha256 of stdout without elapsed, seed 0

    def cli_args(self, spec_path: str, seed: int) -> list:
        args = ["--spec", spec_path, "--suite", self.suite, "--seed", str(seed)]
        if self.max_dom is not None:
            args += ["--max-dom", str(self.max_dom)]
        return args

    @property
    def units(self) -> int:
        return sum(self.counts.values())


def flat_spec(sites, fibers: int, slots: int, cutoff: int) -> dict:
    return {"poset": {"elements": list(sites), "leq": []},
            "n": fibers, "v": slots, "c": cutoff}


def condition_count(cells: int, max_dom: int) -> int:
    """Partial 0/1 assignments with at most max_dom cells."""
    return sum(comb(cells, k) * 2 ** k for k in range(max_dom + 1))


def swap_unit_count(sites: int, fibers: int, slots: int, max_dom: int,
                    cutoff: int) -> int:
    """Admissible (condition, support, site, fiber) tuples of the swap
    suite on an antichain instance: the target pair avoids the support
    and some other fiber at its site is outside the support and
    untouched by the condition."""
    cells = [(z, a, g) for z in range(sites) for a in range(fibers)
             for g in range(slots)]
    pairs = [(z, a) for z in range(sites) for a in range(fibers)]
    supports = [set(c) for k in range(cutoff + 1)
                for c in itertools.combinations(pairs, k)]
    total = 0
    for k in range(max_dom + 1):
        for domain in itertools.combinations(cells, k):
            touched = {(z, a) for z, a, _ in domain}
            admissible = sum(
                1 for support in supports for (z, a) in pairs
                if (z, a) not in support
                and any(b != a and (z, b) not in support and (z, b) not in touched
                        for b in range(fibers)))
            total += admissible * 2 ** k     # bits do not change admissibility
    return total


# The default formula pool has 20 formulas on one site and 21 on two
# (one site-equality atom fewer); the flat generator closure of the
# reference instance is the 4-element group of its two transpositions.
_POOL_ONE_SITE, _POOL_TWO_SITES, _REFERENCE_PERMS = 20, 21, 4
_REF_CONDITIONS = condition_count(8, 3)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="forcing-10cell",
        why="one site, 5 fibers, 2 slots: a 10-cell lattice (59,049 codes, "
            "1,024 filters) where recursive table builds and semantic filter "
            "sweeps do nearly all the work",
        spec_file=None,
        spec=flat_spec(["a"], 5, 2, 1),
        suite="forcing-oracle",
        max_dom=None,
        counts={"forcing-oracle": condition_count(10, 2) * _POOL_ONE_SITE},
        digest="b2c162c86933f7be6280b16b023f2f87dcdf0504d403477594eaf621599d7f6a",
    ),
    Workload(
        name="reference-all",
        why="every flat suite on the 8-cell reference spec: forcing table "
            "builds and memo lookups, act_formula/act_condition churn, the swap "
            "kernel and per-unit JSON emission",
        spec_file="specs/reference.json",
        spec=None,
        suite="all",
        max_dom=3,
        counts={"embedding": 4, "hs": 15, "normality": 41,
                "forcing-oracle": _REF_CONDITIONS * _POOL_TWO_SITES,
                "symmetry-lemma": _REFERENCE_PERMS * _REF_CONDITIONS * _POOL_TWO_SITES,
                "swap": swap_unit_count(2, 2, 2, 3, 1)},
        digest="721287ede0219be7c1e7b70f59b04d071a9f5e73dd4328aa4477f3b78ba0b721",
    ),
    Workload(
        name="swap-3fiber",
        why="the criterion-4 instance (antichain {a,b}, 3 fibers, 2 slots) at "
            "max-dom 3: the swap kernel, Condition/compatible and the lifted "
            "action dominate",
        spec_file=None,
        spec=flat_spec(["a", "b"], 3, 2, 1),
        suite="swap",
        max_dom=3,
        counts={"swap": swap_unit_count(2, 3, 2, 3, 1)},
        digest="d64c545e465873d6d0ac7bd127e69b87a134a04c51dff5c5b2bb3c71df09ed39",
    ),
    Workload(
        name="staged-all",
        why="every staged suite on specs/staged.json: the wisc name pool is "
            "rebuilt per unit (in_stage, name_cells walks), then the wisc kernel",
        spec_file="specs/staged.json",
        spec=None,
        suite="all",
        max_dom=None,
        counts={"hs": 10, "normality": 525, "wisc": 58512, "chains": 17},
        digest="49334a4f08b3743ee7e2af409cc407e92487c32f0c6fdaacdddd741a89b96fea",
    ),
)}


def spec_text(workload: Workload) -> str:
    return json.dumps(workload.spec, sort_keys=True) + "\n"
