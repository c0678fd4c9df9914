"""Command line front end.

Builds a lattice from a builtin family (--boolean N, --grassmann K N,
--flag N) or a poset file (--poset FILE), runs one of the subcommands, and
writes the result as canonical JSON (sorted keys, reduced rationals as
[num, den] integer pairs) or CSV, always UTF-8.

Subcommands: lattice, cone, subdivide, certify, weightpoly, gt (alias
flag), permutahedron.  Exit status: 0 when every internal certification
passed, 1 when a certification ran and failed, 2 on errors; errors are
reported to stderr as a machine readable JSON record.

Faces are addressed by their canonical key (the JSON list of tight
incomparable pairs); the shorthands "full" (no tight pairs) and "apex"
(all tight) are also accepted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import string
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .cone import Face, MaxCone, cone_K, enumerate_faces, face_of
from .errors import BadParams, HibikitError
from .exactgeom import polytope_json, vector_pairs
from .flaggt import (MAX_GT_RANK, flag_lattice, grassmann_lattice,
                     gt_subdivision, gt_vertices, shape_census)
from .hibi import degeneration_certificate
from .lattice import Lattice, birkhoff, diamond_pairs, maximal_chains, parse_lattice
from .poset import Poset, antichain, from_cover_relations, parse_poset
from .subdivision import (face_subdivision, generalized_permutahedron,
                          regular_subdivision, subdivision_invariance_check,
                          subdivision_json)
from .weightpoly import weight_polytope_json

MAX_BOOLEAN = 6

CERTIFY_COLUMNS = ["face_key", "l", "dimR", "dim_in", "dim_cap",
                   "standard_count", "pass"]


# -- serialization helpers ---------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def export_poset(P: Poset, path) -> None:
    payload = {
        "elements": list(P.elements),
        "covers": [[a, b] for a, b in P.covers()],
    }
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def load_poset(path) -> Poset:
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        covers = [(a, b) for a, b in data["covers"]]
        return from_cover_relations(list(data["elements"]), covers)
    return parse_poset(text)


def export_polytope(poly, path) -> None:
    Path(path).write_text(canonical_json(polytope_json(poly)), encoding="utf-8")


def export_subdivision(sub, path) -> None:
    Path(path).write_text(canonical_json(subdivision_json(sub)),
                          encoding="utf-8")


def parse_vector(text: str) -> tuple[Fraction, ...]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise BadParams("empty weight vector")
    try:
        return tuple(Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"bad weight vector entry: {exc}") from None


# -- input selection ---------------------------------------------------------


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("input (pick exactly one)")
    g.add_argument("--boolean", type=int, metavar="N",
                   help="Boolean lattice on N atoms")
    g.add_argument("--grassmann", type=int, nargs=2, metavar=("K", "N"),
                   help="lattice of K-subsets of 1..N")
    g.add_argument("--flag", type=int, metavar="N",
                   help="lattice of all nonempty proper index tuples for rank N")
    g.add_argument("--poset", metavar="FILE",
                   help="poset or lattice file (text format or exported JSON)")


def build_lattice(args) -> Lattice:
    picked = [name for name in ("boolean", "grassmann", "flag", "poset")
              if getattr(args, name) is not None]
    if len(picked) != 1:
        raise BadParams("pick exactly one of --boolean N, --grassmann K N, "
                        "--flag N, --poset FILE")
    if args.boolean is not None:
        n = args.boolean
        if not 1 <= n <= MAX_BOOLEAN:
            raise BadParams(f"--boolean N needs 1 <= N <= {MAX_BOOLEAN}")
        return birkhoff(antichain(list(string.ascii_lowercase[15:15 + n])))
    if args.grassmann is not None:
        k, n = args.grassmann
        return grassmann_lattice(k, n)
    if args.flag is not None:
        return flag_lattice(args.flag)
    text = Path(args.poset).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return birkhoff(load_poset(args.poset))
    return parse_lattice(text)


def interior_weight(L: Lattice) -> list[int]:
    # squared ideal sizes are strictly slack on every diamond inequality
    return [L.height(a) ** 2 for a in L.elements]


def apex_weight(L: Lattice) -> list[int]:
    # ideal sizes are modular, so every diamond inequality is tight
    return [L.height(a) for a in L.elements]


def resolve_face(K: MaxCone, spec: str) -> Face:
    if spec == "full":
        return face_of(K, interior_weight(K.lattice))
    if spec == "apex":
        return face_of(K, apex_weight(K.lattice))
    for F in enumerate_faces(K):
        if F.key() == spec:
            return F
    raise BadParams(f"no face of the cone has key {spec}")


# -- subcommands -------------------------------------------------------------


def cmd_lattice(args) -> int:
    L = build_lattice(args)
    pairs = diamond_pairs(L)
    chains = maximal_chains(L)
    payload = {
        "command": "lattice",
        "size": L.size,
        "elements": list(L.elements),
        "bottom": L.bottom,
        "top": L.top,
        "poset": {
            "elements": list(L.poset_P.elements),
            "covers": [[a, b] for a, b in L.poset_P.covers()],
        },
        "diamond_count": len(pairs),
        "diamond_pairs": [[d.a, d.b] for d in pairs],
        "maximal_chains": len(chains),
        "chain_length": L.poset_P.size + 1,
    }
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_cone(args) -> int:
    L = build_lattice(args)
    K = cone_K(L)  # raises unless every inequality is LP-certified a facet
    faces = enumerate_faces(K)
    face_rows = sorted(
        ({"key": F.key(), "dim": F.dim, "tight_count": len(F.tight)}
         for F in faces),
        key=lambda row: (row["tight_count"], row["key"]))
    payload = {
        "command": "cone",
        "facet_count": len(K.pairs),
        "facets": [{"pair": [d.a, d.b], "normal": [int(x) for x in normal]}
                   for d, normal in K.facet_inequalities],
        "face_count": len(faces),
        "faces": face_rows,
    }
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_subdivide(args) -> int:
    L = build_lattice(args)
    if (args.w is None) == (args.face is None):
        raise BadParams("give exactly one of --w or --face")
    K = cone_K(L)
    if args.w is not None:
        w = parse_vector(args.w)
        F = face_of(K, w)  # validates length and cone membership
        sub = regular_subdivision(L, w)
    else:
        F = resolve_face(K, args.face)
        sub = face_subdivision(F)
    payload = {
        "command": "subdivide",
        "face": F.key(),
        "part_count": len(sub.parts),
        "subdivision": subdivision_json(sub),
    }
    status = 0
    if args.check:
        ok = subdivision_invariance_check(F, args.check, seed=args.seed)
        payload["invariance_check"] = {
            "trials": args.check, "seed": args.seed, "pass": ok,
        }
        if not ok:
            status = 1
    _write_text(canonical_json(payload), args.out)
    return status


def cmd_certify(args) -> int:
    L = build_lattice(args)
    rows = degeneration_certificate(L, args.lmax)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CERTIFY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = {col: row[col] for col in CERTIFY_COLUMNS}
        out["pass"] = "true" if row["pass"] else "false"
        writer.writerow(out)
    _write_text(buf.getvalue(), args.out)
    return 0 if all(row["pass"] for row in rows) else 1


def cmd_weightpoly(args) -> int:
    L = build_lattice(args)
    K = cone_K(L)
    F = resolve_face(K, args.face)
    payload = {"command": "weightpoly"}
    payload.update(weight_polytope_json(F))
    _write_text(canonical_json(payload), args.out)
    return 0


def _gt_subdivision_payload(n: int, face_spec: str) -> dict:
    K = cone_K(flag_lattice(n))
    F = resolve_face(K, face_spec)
    parts = gt_subdivision(n, F)
    return {
        "face": F.key(),
        "part_count": len(parts),
        "parts": [{
            "order_covers": [[a, b] for a, b in order.covers()],
            "polytope": polytope_json(Q),
        } for order, Q in parts],
    }


def cmd_gt(args) -> int:
    if not 2 <= args.n <= MAX_GT_RANK:
        raise BadParams(f"gt needs 2 <= n <= {MAX_GT_RANK}")
    payload = {"command": "gt", "n": args.n}
    if args.action in (None, "census"):
        census = shape_census(args.n)
        payload["census"] = census
        payload["component_count"] = sum(census.values())
    if args.action in (None, "subdivide"):
        payload["subdivision"] = _gt_subdivision_payload(args.n, args.face)
    if args.action == "vertices":
        vs = gt_vertices(args.n)
        payload["vertex_count"] = len(vs)
        payload["vertices"] = [{
            "point": vector_pairs(v.point),
            "labels": list(v.labels),
            "decomposition": [vector_pairs(d) for d in v.decomposition],
        } for v in vs]
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_permutahedron(args) -> int:
    L = build_lattice(args)
    w = parse_vector(args.w)
    if len(w) != L.size:
        raise BadParams(f"weight vector needs {L.size} entries, got {len(w)}")
    Q = generalized_permutahedron(L, w)
    payload = {
        "command": "permutahedron",
        "vertex_count": len(Q.vertices),
        "polytope": polytope_json(Q),
    }
    _write_text(canonical_json(payload), args.out)
    return 0


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hibikit",
        description="certified combinatorics of lattice degenerations")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, aliases=()):
        sub = subs.add_parser(name, aliases=list(aliases))
        sub.set_defaults(func=fn)
        sub.add_argument("--out", metavar="FILE",
                         help="write the artifact here instead of stdout")
        return sub

    p = add("lattice", cmd_lattice)
    _add_input_flags(p)

    p = add("cone", cmd_cone)
    _add_input_flags(p)

    p = add("subdivide", cmd_subdivide)
    _add_input_flags(p)
    p.add_argument("--w", metavar="VEC",
                   help="comma separated weights, fractions allowed")
    p.add_argument("--face", metavar="KEY",
                   help="face key, or the shorthands full / apex")
    p.add_argument("--check", type=int, metavar="TRIALS",
                   help="verify invariance over TRIALS interior resamples")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the recorded resampling (default 0)")

    p = add("certify", cmd_certify)
    _add_input_flags(p)
    p.add_argument("--lmax", type=int, default=3,
                   help="largest degree in the certificate grid (default 3)")

    p = add("weightpoly", cmd_weightpoly)
    _add_input_flags(p)
    p.add_argument("--face", metavar="KEY", default="full",
                   help="face key, or full / apex (default full)")

    p = add("gt", cmd_gt, aliases=["flag"])
    p.add_argument("--n", type=int, required=True, help="flag rank")
    p.add_argument("action", nargs="?",
                   choices=["census", "subdivide", "vertices"],
                   help="default: census plus the full-face subdivision")
    p.add_argument("--face", metavar="KEY", default="full",
                   help="cone face for the subdivision (default full)")

    p = add("permutahedron", cmd_permutahedron)
    _add_input_flags(p)
    p.add_argument("--w", metavar="VEC", required=True,
                   help="comma separated weights, fractions allowed")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HibikitError, AssertionError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(canonical_json(record))
        return 2


if __name__ == "__main__":
    sys.exit(main())
