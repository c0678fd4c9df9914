"""End-to-end checks of the command line front end.

Most tests drive main() in process and parse the canonical JSON it
writes; one test goes through a real subprocess to cover the module
entry point.
"""

import json
import subprocess
import sys

import pytest

from hibikit.cli import (canonical_json, export_polytope, export_poset,
                         export_subdivision, load_poset, main, parse_vector)
from hibikit.cone import cone_K, face_of
from hibikit.exactgeom import LatticePolytope
from hibikit.lattice import birkhoff
from hibikit.poset import antichain, from_cover_relations
from hibikit.subdivision import face_subdivision


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- spec'd example invocations ----------------------------------------------


def test_lattice_boolean_2(capsys):
    report = run_json(capsys, ["lattice", "--boolean", "2"])
    assert report["diamond_count"] == 1
    assert report["maximal_chains"] == 2
    assert report["size"] == 4
    assert report["poset"]["covers"] == []


def test_gt_4_census(capsys):
    report = run_json(capsys, ["gt", "--n", "4", "census"])
    assert report["census"] == {"3x2x1": 8, "2x2x2": 2, "4x1x1": 2}
    assert report["component_count"] == 12


def test_flag_alias(capsys):
    a = run_cli(capsys, ["gt", "--n", "3", "census"])
    b = run_cli(capsys, ["flag", "--n", "3", "census"])
    assert a == b
    assert json.loads(a[1])["census"] == {"2x1": 2}


def test_certify_grassmann_2_4_all_pass(capsys):
    code, out, err = run_cli(capsys, ["certify", "--grassmann", "2", "4",
                                      "--lmax", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "face_key,l,dimR,dim_in,dim_cap,standard_count,pass"
    rows = lines[1:]
    # two faces (one diamond pair) times degrees 1..3
    assert len(rows) == 6
    assert all(row.endswith(",true") for row in rows)


# -- exports -----------------------------------------------------------------


def test_export_poset_round_trip(tmp_path):
    P = from_cover_relations(["x", "y", "z"], [("x", "y"), ("x", "z")])
    path = tmp_path / "poset.json"
    export_poset(P, path)
    assert load_poset(path) == P


def test_export_square_polytope(tmp_path):
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    path = tmp_path / "square.json"
    export_polytope(square, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert len(data["vertices"]) == 4
    assert all(num in (0, 1) and den == 1
               for vert in data["vertices"] for num, den in vert)


def test_export_subdivision_part_count(tmp_path):
    L = birkhoff(antichain(["p", "q"]))
    F = face_of(cone_K(L), [0, 1, 1, 3])  # interior weight, m(F) = 2
    export_subdivision(face_subdivision(F), tmp_path / "sub.json")
    data = json.loads((tmp_path / "sub.json").read_text(encoding="utf-8"))
    assert len(data["parts"]) == 2
    assert len(data["parts"]) == len(L.extensions())


def test_poset_file_drives_lattice_command(tmp_path, capsys):
    P = from_cover_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    export_poset(P, tmp_path / "p.json")
    report = run_json(capsys, ["lattice", "--poset", str(tmp_path / "p.json")])
    assert report["size"] == 5  # ideals: {}, a, b, ab, abc
    assert report["maximal_chains"] == 2

    # the plain text poset format is accepted as well
    (tmp_path / "p.txt").write_text(
        "elem a\nelem b\nelem c\ncover a c\ncover b c\n", encoding="utf-8")
    again = run_json(capsys, ["lattice", "--poset", str(tmp_path / "p.txt")])
    assert again == report


# -- remaining subcommands ---------------------------------------------------


def test_cone_report(capsys):
    report = run_json(capsys, ["cone", "--boolean", "3"])
    assert report["facet_count"] == 6
    assert report["face_count"] == 22
    dims = [f["dim"] for f in report["faces"]]
    assert max(dims) == 8 and min(dims) == 4  # cone interior, apex = |P|+1
    for facet in report["facets"]:
        assert sum(facet["normal"]) == 0
        assert sorted(facet["normal"]) in ([-1, -1, 0, 0, 0, 0, 1, 1],
                                           [-1, -1, 1, 1])


def test_subdivide_by_weight_and_by_face(capsys):
    by_face = run_json(capsys, ["subdivide", "--boolean", "2",
                                "--face", "full"])
    assert by_face["part_count"] == 2
    by_weight = run_json(capsys, ["subdivide", "--boolean", "2",
                                  "--w", "0,1,1,3"])
    assert by_weight["face"] == "[]"
    assert by_weight["part_count"] == 2
    apex = run_json(capsys, ["subdivide", "--boolean", "2", "--face", "apex"])
    assert apex["part_count"] == 1

    # addressing a face by its exact key works too
    key = apex["face"]
    again = run_json(capsys, ["subdivide", "--boolean", "2", "--face", key])
    assert again == apex


def test_subdivide_invariance_check_recorded(capsys):
    report = run_json(capsys, ["subdivide", "--boolean", "2", "--face", "full",
                               "--check", "3", "--seed", "11"])
    assert report["invariance_check"] == {"trials": 3, "seed": 11,
                                          "pass": True}


def test_weightpoly_report(capsys):
    report = run_json(capsys, ["weightpoly", "--boolean", "2",
                               "--face", "apex"])
    assert len(report["points"]) == 4
    assert len(report["distinguished"]) == 1
    full = run_json(capsys, ["weightpoly", "--boolean", "2"])
    assert full["face"] == "[]"
    assert len(full["distinguished"]) == 2


def test_permutahedron_generic_weight(capsys):
    w = "0,1,4,9,16,25,36,100"
    report = run_json(capsys, ["permutahedron", "--boolean", "3", "--w", w])
    assert report["vertex_count"] == 6


def test_gt_default_action_bundles_census_and_subdivision(capsys):
    report = run_json(capsys, ["gt", "--n", "3"])
    assert report["census"] == {"2x1": 2}
    assert report["subdivision"]["part_count"] == 2
    covers = {tuple(map(tuple, part["order_covers"]))
              for part in report["subdivision"]["parts"]}
    assert len(covers) == 2


def test_gt_vertices(capsys):
    report = run_json(capsys, ["gt", "--n", "3", "vertices"])
    assert report["vertex_count"] == 7
    for record in report["vertices"]:
        assert len(record["labels"]) == 2
        assert len(record["decomposition"]) == 2


# -- determinism and errors ---------------------------------------------------


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, ["cone", "--grassmann", "2", "4"])
    second = run_cli(capsys, ["cone", "--grassmann", "2", "4"])
    assert first == second


def test_out_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["lattice", "--flag", "3"])
    assert code == 0
    path = tmp_path / "report.json"
    assert main(["lattice", "--flag", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv", [
    ["subdivide", "--boolean", "2"],                      # neither selector
    ["subdivide", "--boolean", "2", "--w", "1,1", "--face", "full"],
    ["subdivide", "--boolean", "2", "--w", "0,5,0,1"],    # outside the cone
    ["subdivide", "--boolean", "2", "--w", "0,oops,0,1"],
    ["subdivide", "--boolean", "2", "--face", '[["bogus","key"]]'],
    ["lattice", "--boolean", "2", "--flag", "3"],         # two selectors
    ["lattice", "--boolean", "99"],
    ["lattice"],
    ["permutahedron", "--boolean", "2", "--w", "1,2,3"],  # wrong length
    ["gt", "--n", "9", "census"],
    ["lattice", "--poset", "/nonexistent/poset.json"],
])
def test_error_records(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    record = json.loads(err)
    assert set(record["error"]) == {"type", "message"}


def test_parse_vector_fractions():
    from fractions import Fraction
    assert parse_vector("1, 3/2  2") == (1, Fraction(3, 2), 2)


def test_canonical_json_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hibikit.cli", "lattice", "--boolean", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["maximal_chains"] == 2
