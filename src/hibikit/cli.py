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

main(argv) is cheap to call repeatedly in one process: the parsers are
built on the first call and kept, parsing leaves them unchanged, and a
job's argv is parsed once, by its command's subparser alone. A call keeps
the lattice its job named, in a one-entry cache keyed by the selector and
its numbers or by the --poset file's text; the lattice keeps its
certified cone, and the cone the last face resolved on it, with the
face's span and subdivision. So a job on the lattice and face of the job
before it reuses them, and at most one lattice and one face are kept. A
gt job reads the Gelfand-Tsetlin context of its rank from
flaggt.gelfand_tsetlin, one per rank for the life of the process, which
keeps the rank's flag lattice, its cone and that cone's last face, so gt
jobs on two ranks do not evict each other or the lattice cache. For the
last 32 (context, face) pairs that gt jobs named, a call keeps the face's
key and its Gelfand-Tsetlin sections (_gt_sections; 32 is the face count
of Flag(4)'s cone), each face under one spelling: "full" for the key [],
"apex" for the key of every pair, and its key for any other face. So a gt
job on a face named before on its rank's context, by any spelling,
resolves no face and cuts no section; it still builds and writes its own
payload. A spec that is refused keeps nothing, and a new context for the
rank cuts its sections again. One face's kept sections
hold 2.6-4.6 KB for Flag(3), 4.7-43 KB (median 16 KB) over Flag(4)'s 32
faces, and 116 KB-1.8 MB (median 0.5 MB) over 13 of Flag(5)'s faces,
the full face with its 286 sections the largest (tracemalloc), so the
table holds at most about 60 MB. The input guards run and a --poset file
is read on every call.
Start-up is cheap too: at module level this module imports only errors,
lattice and poset of the package. Each subcommand imports the kernels it
runs when it is called, as cmd_certify imports csv, parse_vector
fractions (for a weight that is not an integer) and canonical_json the
JSON writer. A fresh `python -m hibikit.cli cone --boolean 3` took
128-141 ms, against 183-200 ms when every module loaded at import, and a
bare interpreter 75-81 ms (medians of 9 runs each, two rounds, one CPU of
a shared 2-CPU host, no bytecode cache).
Canonical JSON comes from hibikit's own writer (hibikit.jsonwriter),
byte-identical to json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BadParams, CycleError, HibikitError, TooLarge, UnknownLabel
from .lattice import (Lattice, birkhoff, diamond_pairs, flag_lattice, grassmann_lattice,
                      maximal_chain_count, parse_lattice)
from .poset import Poset, antichain

if TYPE_CHECKING:
    from .cone import Face, MaxCone
    from .flaggt import GelfandTsetlin

MAX_BOOLEAN = 6
MAX_CHECK = 20  # every subdivision certifies itself; --check TRIALS is echoed, 2..20
MAX_ENTRY_DIGITS = 100  # per weight entry, exponent included

CERTIFY_COLUMNS = ["face_key", "l", "dimR", "dim_in", "dim_cap",
                   "standard_count", "pass"]


# -- serialization helpers ---------------------------------------------------


def canonical_json(obj) -> str:
    """obj as the bytes of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) plus a newline, for str-keyed dicts, lists, tuples,
    str, int, bool and None; any other type raises TypeError."""
    # hibikit.jsonwriter is imported on the first write, not at start-up
    from .jsonwriter import emit

    out: list[str] = []
    emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _entry_digits(token: str) -> int:
    """A bound, read off the text, on the digits that Fraction(token) writes
    into its numerator and denominator: the token's digits plus the size of
    its exponent, so 1e999999 counts before Fraction expands it."""
    digits = sum(c.isdigit() for c in token)
    exp = token.lower().partition("e")[2]
    if not exp or digits > MAX_ENTRY_DIGITS:
        return digits
    try:
        return digits + abs(int(exp))
    except ValueError:  # not a number; Fraction rejects the token
        return digits


def parse_vector(text: str, size: int) -> tuple[tuple[int, ...], int]:
    """A weight vector of `size` entries, one per lattice element, as
    integers over the lcm den of the entries' denominators: (w, den)."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise BadParams("empty weight vector")
    if len(tokens) != size:
        raise BadParams(f"weight vector needs {size} entries, got {len(tokens)}")
    for i, t in enumerate(tokens):
        if _entry_digits(t) > MAX_ENTRY_DIGITS:
            raise BadParams(f"weight vector entry {i + 1} has more than "
                            f"{MAX_ENTRY_DIGITS} digits")
    unsigned = [t[t[0] in "+-":] for t in tokens]
    if all(u.isascii() and u.isdigit() for u in unsigned):  # [+-]?[0-9]+
        return tuple(map(int, tokens)), 1  # what Fraction gives on such tokens
    from fractions import Fraction

    try:
        values = [Fraction(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"bad weight vector entry: {exc}") from None
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


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
                   help="poset or lattice file (text format, or JSON with "
                        "elements and covers)")


def build_lattice(args) -> Lattice:
    """The lattice the input flags pick. Every call runs the guards and reads
    a --poset file, as UTF-8 with or without a byte-order mark (BadParams
    otherwise); the lattice comes from a one-entry cache keyed by the
    selector and its numbers, or by the file's text, so a job on the lattice
    of the job before it reuses that lattice and the tables it keeps."""
    picked = [name for name in ("boolean", "grassmann", "flag", "poset")
              if getattr(args, name) is not None]
    if len(picked) != 1:
        raise BadParams("pick exactly one of --boolean N, --grassmann K N, "
                        "--flag N, --poset FILE")
    if args.boolean is not None:
        if not 1 <= args.boolean <= MAX_BOOLEAN:
            raise BadParams(f"--boolean N needs 1 <= N <= {MAX_BOOLEAN}")
        return _lattice("boolean", args.boolean)
    if args.grassmann is not None:
        return _lattice("grassmann", *args.grassmann)
    if args.flag is not None:
        return _lattice("flag", args.flag)
    try:
        text = Path(args.poset).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise BadParams(f"poset file is not UTF-8: {exc}") from None
    return _lattice("poset", text)


@functools.lru_cache(maxsize=1)
def _lattice(kind: str, *params) -> Lattice:
    """The lattice of one selector: (kind, its numbers), or ("poset", the
    file's text). A build that raises leaves the cache as it was."""
    if kind == "boolean":
        return birkhoff(antichain(list("pqrstu"[:params[0]])))
    if kind == "grassmann":
        return grassmann_lattice(*params)
    if kind == "flag":
        return flag_lattice(*params)
    try:
        return parse_lattice(params[0])
    except (ValueError, TypeError, KeyError) as exc:  # bad line or JSON shape, repeated element
        raise BadParams(f"bad poset file: {exc!r}") from None
    except (CycleError, UnknownLabel) as exc:  # covers that close a cycle or name no element
        raise BadParams(str(exc)) from None


def interior_weight(L: Lattice) -> list[int]:
    # squared ideal sizes are strictly slack on every diamond inequality
    return [m.bit_count() ** 2 for m in L.masks]


def resolve_face(K: MaxCone, spec: str) -> Face:
    """The face of K that spec names. The last face resolved is kept on K,
    so a job that names the face of the job before it, on the same lattice,
    reuses it with the span and subdivision it keeps."""
    if K._resolved is None or K._resolved[0] != spec:
        K._resolved = (spec, _face_for(K, spec))
    return K._resolved[1]


def _face_for(K: MaxCone, spec: str) -> Face:
    from .cone import Face, _close_tight, face_of

    if spec == "full":
        return face_of(K, interior_weight(K.lattice), 1)
    if spec == "apex":
        return K.apex
    # close the key's pairs by LP; the closure's key is the spec only if
    # closing added no pair and the spec is spelled as Face.key spells it
    unknown = f"no face of the cone has key {spec}"
    E = K.lattice.elements
    index = {tuple(sorted((E[d.a], E[d.b]))): i for i, d in enumerate(K.pairs)}
    try:
        tight = sum({1 << index[tuple(pair)] for pair in json.loads(spec)})
    except (ValueError, TypeError, KeyError, RecursionError):  # RecursionError: nested too deep
        raise BadParams(unknown) from None
    F = Face(K, *_close_tight(K, tight))
    if F.key() != spec:
        raise BadParams(unknown)
    return F


# -- subcommands -------------------------------------------------------------


def cmd_lattice(args) -> int:
    L = build_lattice(args)
    pairs = diamond_pairs(L)
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
        "diamond_pairs": [[L.elements[d.a], L.elements[d.b]] for d in pairs],
        "maximal_chains": maximal_chain_count(L),
        "chain_length": L.poset_P.size + 1,
    }
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_cone(args) -> int:
    from .cone import _key_of, cone_K, enumerate_faces, grade_faces, key_fragments

    L = build_lattice(args)
    K = cone_K(L)  # raises unless every inequality has its facet witness
    faces = enumerate_faces(K)
    fragments = key_fragments(L)
    face_rows = sorted(
        ({"key": _key_of(fragments, tight), "dim": dim,
          "tight_count": tight.bit_count()}
         for (tight, _), dim in zip(faces, grade_faces(K, faces))),
        key=lambda row: (row["tight_count"], row["key"]))
    payload = {
        "command": "cone",
        "facet_count": len(K.pairs),
        "facets": [{"pair": [L.elements[d.a], L.elements[d.b]], "normal": list(normal)}
                   for d, normal in zip(K.pairs, K.normals)],
        "face_count": len(faces),
        "faces": face_rows,
    }
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_subdivide(args) -> int:
    from .cone import cone_K
    from .subdivision import face_subdivision, regular_subdivision, subdivision_json

    if (args.w is None) == (args.face is None):
        raise BadParams("give exactly one of --w or --face")
    if args.check is not None and not 2 <= args.check <= MAX_CHECK:
        raise BadParams(f"--check needs 2 <= TRIALS <= {MAX_CHECK}")
    L = build_lattice(args)
    if args.w is not None:
        sub = regular_subdivision(L, *parse_vector(args.w, L.size))  # validates cone membership
    else:
        sub = face_subdivision(resolve_face(cone_K(L), args.face))
    payload = {
        "command": "subdivide",
        "face": sub.face_key,
        "part_count": len(sub.parts),
        "subdivision": subdivision_json(sub),
    }
    if args.check is not None:
        # the construction certified the parts, or raised
        payload["invariance_check"] = {"trials": args.check, "seed": args.seed, "pass": True}
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_certify(args) -> int:
    import csv

    from .hibi import degeneration_certificate

    L = build_lattice(args)
    if args.lmax < 1:
        raise BadParams("--lmax needs to be at least 1")
    rows = degeneration_certificate(L, args.lmax)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CERTIFY_COLUMNS)
    # "pass", the last column, is written as true or false
    writer.writerows([*(row[col] for col in CERTIFY_COLUMNS[:-1]),
                      "true" if row["pass"] else "false"] for row in rows)
    _write_text(buf.getvalue(), args.out)
    return 0 if all(row["pass"] for row in rows) else 1


def cmd_weightpoly(args) -> int:
    from .cone import cone_K
    from .weightpoly import weight_polytope_json

    L = build_lattice(args)
    K = cone_K(L)
    F = resolve_face(K, args.face)
    payload = {"command": "weightpoly"}
    payload.update(weight_polytope_json(F))
    _write_text(canonical_json(payload), args.out)
    return 0


def _gt_subdivision_payload(gt: GelfandTsetlin, face_spec: str) -> dict:
    from .cone import cone_K
    from .exactgeom import polytope_json

    # one spelling per face: "full" for [], and "apex" for the key of every pair
    spelling = {"[]": "full", cone_K(gt.flag()).apex.key(): "apex"}
    key, parts = _gt_sections(gt, spelling.get(face_spec, face_spec))
    return {
        "face": key,
        "part_count": len(parts),
        "parts": [{
            "order_covers": [[a, b] for a, b in order.covers()],
            "polytope": polytope_json(vertices, gt.n - 1, facets),
        } for order, vertices, facets in parts],
    }


@functools.lru_cache(maxsize=32)  # Flag(4)'s cone has 32 faces
def _gt_sections(gt: GelfandTsetlin,
                 face_spec: str) -> tuple[str, tuple[tuple[Poset, list, list], ...]]:
    """The key of the face of gt.flag()'s cone that face_spec names, and its
    Gelfand-Tsetlin sections as gt_subdivision's (order, vertices, facets)
    triples, kept for the last 32 (context, spec) pairs;
    _gt_subdivision_payload spells each face one way. A spec that raises
    keeps nothing."""
    from .cone import cone_K
    from .flaggt import gt_subdivision

    F = resolve_face(cone_K(gt.flag()), face_spec)
    return F.key(), tuple(gt_subdivision(gt, F))


def cmd_gt(args) -> int:
    from .exactgeom import pair_table
    from .flaggt import (MAX_GT_RANK, MAX_SECTION_RANK, gelfand_tsetlin, gt_vertices,
                         shape_census)

    if not 2 <= args.n <= MAX_GT_RANK:
        raise BadParams(f"gt needs 2 <= n <= {MAX_GT_RANK}")
    if args.face is not None and args.action in ("census", "vertices"):
        raise BadParams(f"gt {args.action} takes no --face")
    if args.action in (None, "subdivide") and args.n > MAX_SECTION_RANK:
        raise TooLarge(f"gt subdivide is capped at n = {MAX_SECTION_RANK}")
    payload = {"command": "gt", "n": args.n}
    gt = gelfand_tsetlin(args.n)
    if args.action in (None, "census"):
        census = shape_census(gt)
        payload["census"] = census
        payload["component_count"] = sum(census.values())
    if args.action in (None, "subdivide"):
        face = "full" if args.face is None else args.face
        payload["subdivision"] = _gt_subdivision_payload(gt, face)
    if args.action == "vertices":
        vs = gt_vertices(gt)
        pair = pair_table((x for v in vs for row in (v.point, *v.decomposition) for x in row),
                          args.n - 1).__getitem__
        payload["vertex_count"] = len(vs)
        payload["vertices"] = [{
            "point": [*map(pair, v.point)],
            "labels": list(v.labels),
            "decomposition": [[*map(pair, d)] for d in v.decomposition],
        } for v in vs]
    _write_text(canonical_json(payload), args.out)
    return 0


def cmd_permutahedron(args) -> int:
    from .exactgeom import facet_hyperplanes, polytope_json
    from .subdivision import generalized_permutahedron

    L = build_lattice(args)
    vertices, den = generalized_permutahedron(L, *parse_vector(args.w, L.size))
    payload = {
        "command": "permutahedron",
        "vertex_count": len(vertices),
        "polytope": polytope_json(vertices, den, facet_hyperplanes(vertices)),
    }
    _write_text(canonical_json(payload), args.out)
    return 0


# -- argument parsing --------------------------------------------------------


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by name and alias."""
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
                   help="add the invariance_check record; every subdivision is "
                        "certified by its construction, and TRIALS (2 to 20) is "
                        "only echoed")
    p.add_argument("--seed", type=int, default=0,
                   help="only echoed with --check (default 0)")

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
    p.add_argument("--face", metavar="KEY",
                   help="cone face for the subdivision (default full)")

    p = add("permutahedron", cmd_permutahedron)
    _add_input_flags(p)
    p.add_argument("--w", metavar="VEC", required=True,
                   help="comma separated weights, fractions allowed")

    return parser, subs.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:  # no command, -h or an unknown command
        args = parser.parse_args(argv)
    else:  # the subparser the top-level parse would hand argv[1:] to
        args, extra = sub.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (HibikitError, AssertionError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(canonical_json(record))
        return 2


if __name__ == "__main__":
    sys.exit(main())
