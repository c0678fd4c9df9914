"""The benchmark workloads: seeded streams of hibikit CLI jobs with the
checks each job's output must pass.

A workload is a seeded stream of units, and a run measures a fixed job
list: the first `list_units(seconds)` units of the stream, a count set so
that the list takes about that many scaled seconds (see run.py) at the seed
commit on a 2-core x86-64 container with CPython 3.11.  A faster program
finishes the same list sooner; it does not get a different list.

A unit is a generator that yields Job objects and is sent back each job's
stdout (or None when the job failed), so a unit can choose its next jobs
from earlier outputs the way a user would: the `faces` sweep picks face
keys from the `cone` listing it just received.

Each unit draws from its own random.Random seeded by (workload, seed,
unit index): the same seed gives the same inputs, and one unit's inputs do
not depend on how many draws earlier units made.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Callable, Iterator, Optional

from inputs import (Strata, boolean_weight, canonical, chain_product,
                    poset_catalogue, poset_text, proportional_pattern, relabel)

CERTIFY_COLUMNS = ["face_key", "l", "dimR", "dim_in", "dim_cap",
                   "standard_count", "pass"]
N4_CENSUS = {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}
# the two faces of the Flag(3) cone: it has one diamond pair, {1, 23}
FLAG3_FACE_KEYS = ["[]", '[["1","23"]]']
SUBDIVIDE_TRIALS = 3


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    argv: list[str]
    check: Callable[[str], None]  # raises CheckFailed (or a parse error)


@dataclass
class Unit:
    name: str
    inputs: dict  # what the generator chose, recorded with the result
    steps: Iterator = field(repr=False)
    repeat: bool = False  # a class served again after its stratum ran dry


def single(job: Job):
    yield job


# -- certify -------------------------------------------------------------------


def certify_check(size: int, lmax: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        reader = csv.DictReader(io.StringIO(out))
        require(reader.fieldnames == CERTIFY_COLUMNS, "certify: unexpected header")
        rows = list(reader)
        require(rows, "certify: no rows")
        degrees: dict[str, set[int]] = {}
        for row in rows:
            l = int(row["l"])
            dim_r, dim_in = int(row["dimR"]), int(row["dim_in"])
            dim_cap, std = int(row["dim_cap"]), int(row["standard_count"])
            require(dim_r == comb(size + l - 1, l), f"certify: dimR {dim_r} at l={l}")
            require(dim_in == dim_cap == dim_r - std,
                    f"certify: dimension identity fails at l={l}")
            require(row["pass"] == "true", "certify: row not passed")
            degrees.setdefault(row["face_key"], set()).add(l)
        require(all(ls == set(range(1, lmax + 1)) for ls in degrees.values()),
                "certify: degree grid incomplete")
    return check


def certify_units(seed: int, workdir: Path) -> Iterator[Unit]:
    """The five builtin lattices, then every poset on 3-6 elements whose
    ideal lattice has at most 10 elements and at most 3 diamond pairs, one
    per isomorphism class (57 classes), interleaved by (|L|, diamond pairs)
    so every prefix has the same cost profile.  lmax is 4 up to 8 lattice
    elements and 3 above (hibikit caps these oracles at 12 elements)."""
    def lmax_for(size: int) -> int:
        return 4 if size <= 8 else 3

    builtins = [("B2", ["--boolean", "2"], 4), ("B3", ["--boolean", "3"], 8),
                ("Gr24", ["--grassmann", "2", "4"], 6),
                ("Gr25", ["--grassmann", "2", "5"], 10),
                ("Flag3", ["--flag", "3"], 6)]
    for name, sel, size in builtins:
        lmax = lmax_for(size)
        job = Job(["certify", *sel, "--lmax", str(lmax)], certify_check(size, lmax))
        yield Unit(name, {"argv": job.argv}, single(job))

    taken = {canonical(3, [0, 0, 0]), canonical(4, chain_product(2, 2)),
             canonical(6, chain_product(2, 3))}
    pool = [c for c in poset_catalogue(3, 6, 10)
            if c.diamonds <= 3 and c.up not in taken]
    yield from _poset_units("certify", seed, workdir, pool,
                            key=lambda c: (c.ideals, c.diamonds),
                            proportional=True,
                            make=lambda cls, path, rng: single(Job(
                                ["certify", "--poset", path, "--lmax",
                                 str(lmax_for(cls.ideals))],
                                certify_check(cls.ideals, lmax_for(cls.ideals)))))


def _poset_units(workload: str, seed: int, workdir: Path, pool, key,
                 proportional: bool, make) -> Iterator[Unit]:
    counts: dict = {}
    for c in pool:
        counts[key(c)] = counts.get(key(c), 0) + 1
    pattern = (proportional_pattern(counts) if proportional
               else sorted(counts))
    strata = Strata(pool, key, random.Random(f"{workload}:{seed}:strata"))
    for index in itertools.count():
        rng = random.Random(f"{workload}:{seed}:{index}")
        cls, repeat = strata.draw(pattern[index % len(pattern)])
        elements, covers = relabel(cls, rng)
        text = poset_text(elements, covers)
        path = workdir / f"u{index}.poset"
        path.write_text(text, encoding="utf-8")
        yield Unit(f"poset{index}",
                   {"poset": text, "ideals": cls.ideals, "diamonds": cls.diamonds},
                   make(cls, str(path), rng), repeat)


# -- faces ---------------------------------------------------------------------


def cone_check(diamonds: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        data = json.loads(out)
        require(data["facet_count"] == diamonds == len(data["facets"]),
                "cone: facet count differs from the diamond-pair count")
        keys = [f["key"] for f in data["faces"]]
        require(data["face_count"] == len(keys) == len(set(keys)),
                "cone: face listing inconsistent")
        require("[]" in keys, "cone: full face missing")
    return check


def subdivide_check(key: str, seed: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        data = json.loads(out)
        require(data["face"] == key, "subdivide: face key not echoed")
        inv = data["invariance_check"]
        require(inv["pass"] is True and inv["trials"] == SUBDIVIDE_TRIALS
                and inv["seed"] == seed, "subdivide: invariance check failed")
        require(data["part_count"] == len(data["subdivision"]["parts"]) >= 1,
                "subdivide: part count inconsistent")
    return check


def weightpoly_check(key: str, size: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        data = json.loads(out)
        require(data["face"] == key, "weightpoly: face key not echoed")
        require(len(data["points"]) == size, "weightpoly: needs one point per element")
        require(data["distinguished"], "weightpoly: no distinguished faces")
    return check


def face_sweep(sel: list[str], size: int, diamonds: int, keys_wanted: int,
               rng: random.Random):
    out = yield Job(["cone", *sel], cone_check(diamonds))
    if out is None:
        return
    # keys of the facets (one tight pair): weightpoly's cost depends on the
    # face's dimension, so drawing among faces of one dimension keeps the
    # list's cost profile the same for every seed
    keys = [f["key"] for f in json.loads(out)["faces"] if f["tight_count"] == 1]
    for key in rng.sample(keys, min(keys_wanted, len(keys))):
        s = rng.randrange(1000)
        yield Job(["subdivide", *sel, "--face", key, "--check",
                   str(SUBDIVIDE_TRIALS), "--seed", str(s)], subdivide_check(key, s))
        yield Job(["weightpoly", *sel, "--face", key], weightpoly_check(key, size))


def faces_units(seed: int, workdir: Path) -> Iterator[Unit]:
    """B3 with two of its six (symmetric) facets and Gr(2,5) with all three
    of its facets, then posets on 5 elements with 2-5 diamond pairs (their
    lattices have m + 6 elements), one per stratum in turn, with one facet
    key each.  Every keyed job rebuilds the cone and re-enumerates its
    faces."""
    for name, sel, size, diamonds, keys in [("B3", ["--boolean", "3"], 8, 6, 2),
                                            ("Gr25", ["--grassmann", "2", "5"], 10, 3, 3)]:
        rng = random.Random(f"faces:{seed}:{name}")
        yield Unit(name, {"selector": sel}, face_sweep(sel, size, diamonds, keys, rng))

    taken = {canonical(6, chain_product(2, 3))}
    pool = [c for c in poset_catalogue(5, 5, 11)
            if 2 <= c.diamonds <= 5 and c.up not in taken]
    yield from _poset_units(
        "faces", seed, workdir, pool, key=lambda c: c.diamonds, proportional=False,
        make=lambda cls, path, rng: face_sweep(["--poset", path], cls.ideals,
                                               cls.diamonds, 1, rng))


# -- polytopes -----------------------------------------------------------------


def gt_check(n: int, action: Optional[str], key: Optional[str] = None):
    def check(out: str) -> None:
        data = json.loads(out)
        require(data["n"] == n, "gt: wrong rank echoed")
        if action in (None, "census"):
            census = data["census"]
            require(data["component_count"] == sum(census.values()),
                    "gt: component count inconsistent")
            if n == 4:
                require(census == N4_CENSUS, f"gt: n=4 census {census}")
        if action in (None, "subdivide"):
            sub = data["subdivision"]
            require(sub["face"] == (key or "[]"), "gt: face key not echoed")
            require(sub["part_count"] == len(sub["parts"]) >= 1,
                    "gt: part count inconsistent")
        if action == "vertices":
            points = [json.dumps(v["point"]) for v in data["vertices"]]
            require(data["vertex_count"] == len(points) == len(set(points)) > 0,
                    "gt: vertex listing inconsistent")
    return check


def permutahedron_check(n: int, w: list[int], interior: bool):
    def check(out: str) -> None:
        data = json.loads(out)
        verts = data["polytope"]["vertices"]
        require(data["vertex_count"] == len(verts) >= 1,
                "permutahedron: vertex count inconsistent")
        require(data["polytope"]["hyperplanes"] is not None,
                "permutahedron: H-description missing")
        # every vertex is minus the slope of a part; slopes sum along a
        # maximal chain to w(top) - w(bottom)
        for v in verts:
            total = sum(Fraction(num, den) for num, den in v)
            require(total == w[0] - w[-1],
                    "permutahedron: vertex off the base hyperplane")
        if interior:
            require(len(verts) == factorial(n),
                    "permutahedron: interior weight needs n! vertices")
    return check


def polytope_round(rng: random.Random, record: dict):
    keys = rng.sample(FLAG3_FACE_KEYS, len(FLAG3_FACE_KEYS))
    record["gt3_faces"] = keys
    perms = []
    for n, interior in [(3, True), (3, False), (4, True), (4, False)]:
        w = boolean_weight(n, rng, interior)
        record[f"B{n}_{'interior' if interior else 'boundary'}"] = w
        # --w=... because a weight may start with a minus sign
        perms.append(Job(["permutahedron", "--boolean", str(n),
                          "--w=" + ",".join(map(str, w))],
                         permutahedron_check(n, w, interior)))
    # heavy and light jobs alternate, so a round's cost is spread evenly
    yield Job(["gt", "--n", "4", "vertices"], gt_check(4, "vertices"))
    yield perms[0]
    yield Job(["gt", "--n", "3"], gt_check(3, None))
    yield perms[1]
    yield Job(["gt", "--n", "3", "subdivide", "--face", keys[0]],
              gt_check(3, "subdivide", keys[0]))
    yield perms[2]
    yield Job(["gt", "--n", "4", "census"], gt_check(4, "census"))
    yield perms[3]
    yield Job(["gt", "--n", "3", "subdivide", "--face", keys[1]],
              gt_check(3, "subdivide", keys[1]))


def polytopes_units(seed: int, workdir: Path) -> Iterator[Unit]:
    """Rounds of the Gelfand-Tsetlin jobs (the Flag(3) subdivision on both
    faces of its cone, in seeded order) and four seeded permutahedra: on B3
    and B4, one weight inside the cone and one on its boundary."""
    for index in itertools.count():
        rng = random.Random(f"polytopes:{seed}:{index}")
        record: dict = {}
        steps = polytope_round(rng, record)
        yield Unit(f"round{index}", record, steps)


@dataclass(frozen=True)
class Workload:
    units: Callable[[int, Path], Iterator[Unit]]
    fixed: int  # leading units every list holds
    fixed_s: float  # their cost at the seed commit, in scaled seconds
    stride: int  # the rest of the list comes in whole strides of units
    stride_s: float  # cost of one stride at the seed commit, in scaled seconds

    def list_units(self, seconds: float) -> int:
        strides = max(1, round((seconds - self.fixed_s) / self.stride_s))
        return self.fixed + self.stride * strides


WORKLOADS = {
    "certify": Workload(certify_units, 5, 6.0, 1, 0.42),
    # a stride is one lattice from each diamond-pair stratum
    "faces": Workload(faces_units, 2, 10.0, 4, 6.7),
    "polytopes": Workload(polytopes_units, 0, 0.0, 1, 6.9),
}
