"""End-to-end checks of the command line front end.

Most tests drive main() in process and parse the canonical JSON it
writes; one test goes through a real subprocess to cover the module
entry point.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibikit import cli, cone, exactgeom, jsonwriter
from hibikit.cli import canonical_json, main, parse_vector
from hibikit.cone import cone_K, face_of
from hibikit.errors import BadParams
from hibikit.exactgeom import facet_hyperplanes, polytope_json
from hibikit.lattice import birkhoff, grassmann_lattice, parse_lattice
from hibikit.poset import antichain, from_cover_relations
from hibikit.subdivision import face_subdivision, subdivision_json
from order_oracle import lattice_key, order_key

ROOT = Path(__file__).resolve().parent.parent


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


def test_export_poset_round_trip(tmp_path, capsys):
    # the "poset" object that `lattice` prints is a poset file for --poset
    P = from_cover_relations(["x", "y", "z"], [("x", "y"), ("x", "z")])
    (tmp_path / "p.txt").write_text("elem x\nelem y\nelem z\ncover x y\ncover x z\n",
                                    encoding="utf-8")
    report = run_json(capsys, ["lattice", "--poset", str(tmp_path / "p.txt")])
    M = parse_lattice(canonical_json(report["poset"]))
    assert order_key(M.poset_P) == order_key(P)
    assert lattice_key(M) == lattice_key(birkhoff(P))


def test_export_square_polytope():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    data = polytope_json(square, 1, facet_hyperplanes(square))
    assert len(data["vertices"]) == 4
    assert all(num in (0, 1) and den == 1
               for vert in data["vertices"] for num, den in vert)


def test_export_subdivision_part_count():
    L = birkhoff(antichain(["p", "q"]))
    F = face_of(cone_K(L), [0, 1, 1, 3], 1)  # interior weight, m(F) = 2
    data = subdivision_json(face_subdivision(F))
    assert len(data["parts"]) == 2
    assert len(data["parts"]) == len(L.extensions())


def test_poset_file_drives_lattice_command(tmp_path, capsys):
    (tmp_path / "p.json").write_text(
        '{"elements": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]}', encoding="utf-8")
    report = run_json(capsys, ["lattice", "--poset", str(tmp_path / "p.json")])
    assert report["size"] == 5  # ideals: {}, a, b, ab, abc
    assert report["maximal_chains"] == 2

    # the plain text poset format is accepted as well
    (tmp_path / "p.txt").write_text(
        "elem a\nelem b\nelem c\ncover a c\ncover b c\n", encoding="utf-8")
    again = run_json(capsys, ["lattice", "--poset", str(tmp_path / "p.txt")])
    assert again == report


@pytest.mark.parametrize("argv", [["lattice"], ["certify", "--lmax", "1"], ["cone"]])
def test_a_poset_file_past_the_ideal_cap_exits_2_at_once(tmp_path, capsys, argv):
    # a 14-element antichain has 2^14 ideals; closing all pairs of them took
    # 46 s before the lattice's ideals were counted against a cap
    path = tmp_path / "p.txt"
    path.write_text("".join(f"elem x{i}\n" for i in range(14)), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, [*argv, "--poset", str(path)])
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "TooLarge"


def test_poset_file_is_read_once(tmp_path, capsys, monkeypatch):
    # the file's text picks the format and is then parsed; a JSON file used
    # to be read a second time to parse it
    path = tmp_path / "p.json"
    path.write_text('{"elements": ["a", "b"], "covers": [["a", "b"]]}', encoding="utf-8")
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text",
                        lambda self, *args, **kwargs: reads.append(self) or read_text(self, *args, **kwargs))
    code, out, err = run_cli(capsys, ["certify", "--poset", str(path), "--lmax", "2"])
    assert code == 0, err
    assert reads == [path]


@pytest.mark.parametrize("poset_file", [
    "elem a\nelem b\nelem c\ncover a c\n",
    '{"elements": ["a", "b", "c"], "covers": [["a", "c"]]}',
], ids=["text", "JSON"])
def test_poset_file_may_start_with_a_byte_order_mark(tmp_path, capsys, poset_file):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(poset_file, encoding="utf-8")
    marked.write_text(poset_file, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    outputs = [run_cli(capsys, ["cone", "--poset", str(path)]) for path in (plain, marked)]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_a_poset_file_that_is_not_utf8_is_bad_params(tmp_path, capsys):
    # bad input: an error record and exit 2, not a traceback and exit 1,
    # which would say a certification ran and failed
    path = tmp_path / "p.txt"
    path.write_bytes(b"elem \xff\n")
    code, out, err = run_cli(capsys, ["lattice", "--poset", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "BadParams",
        "message": "poset file is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
                   "position 5: invalid start byte"}


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


# out of range for the scan over all 2^m subsets of the m facets: 2^24
# candidates on B4, and about a minute on Gr(3,6)
@pytest.mark.parametrize("argv, facets, faces", [
    ("cone --boolean 4", 24, 22108),
    ("cone --grassmann 3 6", 12, 1408),
])
def test_cone_face_counts(argv, facets, faces, capsys):
    report = run_json(capsys, argv.split())
    assert report["facet_count"] == facets
    assert report["face_count"] == faces


def test_subdivide_b6_full_face(capsys):
    # did not finish while cone_K certified B6's 240 facets by LP
    report = run_json(capsys, ["subdivide", "--boolean", "6", "--face", "full"])
    assert report["part_count"] == 720


def test_cone_b5_reaches_the_ray_cap_without_lp(capsys, monkeypatch):
    def no_lp(*args):
        raise AssertionError("cone solved an LP")

    monkeypatch.setattr("hibikit.exactgeom._run_simplex", no_lp)
    code, out, err = run_cli(capsys, ["cone", "--boolean", "5"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "TooLarge"


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


def test_subdivide_by_weight_builds_no_cone(monkeypatch, capsys):
    # a --w job reads nothing from the cone, with --check or without, so it
    # builds no cone and no Face; its bytes are those it wrote when it
    # built them
    def refuse(*args):
        raise AssertionError("the job built a cone or a face")

    monkeypatch.setattr(cone, "cone_K", refuse)
    monkeypatch.setattr(cone.Face, "__init__", refuse)
    for check, digest in [
        ([], "82adb069f51d00c1a319c2fcaeb28d9ab1d7bb2d4e31b115759587ca737a2301"),
        (["--check", "3"], "5271ccdcf94197aa8f7b51dfa763683d113d0c86ec9416bf406062ff07d5052c"),
    ]:
        assert main(["subdivide", "--boolean", "3", "--w", "0,1,1,1,4,4,4,9", *check]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gt_vertices_reduce_each_coordinate_once(n, capsys, monkeypatch):
    # each distinct coordinate of the vertex rows, points and decompositions
    # alike, is reduced over n - 1 once per job, and its pair shared
    reduced = []
    pair = exactgeom.fraction_pair
    monkeypatch.setattr(exactgeom, "fraction_pair",
                        lambda x, den: reduced.append((x, den)) or pair(x, den))
    report = run_json(capsys, ["gt", "--n", str(n), "vertices"])
    rows = [row for v in report["vertices"] for row in (v["point"], *v["decomposition"])]
    assert len(reduced) == len(set(reduced)) == len({tuple(x) for row in rows for x in row})
    assert {den for _, den in reduced} == {n - 1}


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
    ["gt", "--n", "3", "census", "--face", "bogus"],     # --face needs subdivide
    ["gt", "--n", "3", "vertices", "--face", "apex"],
    ["lattice", "--poset", "/nonexistent/poset.json"],
])
def test_error_records(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    record = json.loads(err)
    assert set(record["error"]) == {"type", "message"}


@pytest.mark.parametrize("argv", [
    ["certify", "--grassmann", "3", "6", "--lmax", "2"],  # 20 elements
    ["certify", "--boolean", "4"],                        # 16 elements
])
def test_certify_past_element_cap_fails_before_any_lp(argv, capsys, monkeypatch):
    def no_lp(*args, **kwargs):
        raise RuntimeError("certify solved an LP past the element cap")

    monkeypatch.setattr("hibikit.exactgeom._run_simplex", no_lp)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "BadParams"


def test_cone_past_the_face_cap_fails_fast(capsys):
    # Gr(3,7) has more than 1,000,000 faces, more than cone.MAX_FACES; the
    # cap trips while the rays' tight sets are intersected, before any face
    # is built
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["cone", "--grassmann", "3", "7"])
    assert time.monotonic() - start < 10
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "TooLarge"


def child_peak_kb(argv):
    """Run main(argv + --out os.devnull) in a fresh process; its exit code
    must be 0. Returns the child's own VmHWM in kB: Linux carries the
    parent's peak RSS across exec into ru_maxrss, so under a large test
    process that counter measures the parent."""
    script = ("import os\n"
              "from hibikit.cli import main\n"
              f"code = main({argv!r} + ['--out', os.devnull])\n"
              "status = open('/proc/self/status').read()\n"
              "print(code, status.split('VmHWM:')[1].split()[0])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    return peak_kb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_cone_flag5_peak_memory():
    # cone lists Flag(5)'s 90,112 faces as masks and builds no Face for
    # them; a fresh process peaks at about 145 MB, where one Face per face
    # took about 250 MB
    assert child_peak_kb(["cone", "--flag", "5"]) < 190 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_subdivide_flag6_peak_memory():
    # the full face of Flag(6) has 33,592 parts of one extension each; a
    # part keeps no constant, no value row and no order, the subdivision no
    # part index per extension, and the staircase table one chain mask per
    # extension and no before masks: a fresh process peaks at about 334 MB,
    # where the before masks and part orders took about 359 MB
    assert child_peak_kb(["subdivide", "--flag", "6", "--face", "full"]) < 350 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_weightpoly_flag6_peak_memory():
    # weightpoly reads the vertex masks of its face's subdivision and no
    # part's order, so the staircase table keeps no before masks for its
    # 33,592 extensions, and it writes each part's labels straight off its
    # mask and keeps no weight-polytope record: a fresh process peaks at
    # about 63.5 MB, where the record and per-part index tuples took about
    # 65.5 MB and the before masks about 91 MB
    assert child_peak_kb(["weightpoly", "--flag", "6"]) < 82 * 1024


@pytest.mark.parametrize("argv", [
    ["subdivide", "--grassmann", "4", "9", "--face", "full"],
    ["weightpoly", "--flag", "7"],
    ["permutahedron", "--grassmann", "4", "9", "--w", "HEIGHTS"],
], ids=["subdivide Gr(4,9)", "weightpoly Flag(7)", "permutahedron Gr(4,9)"])
def test_too_many_extensions_fail_fast(capsys, argv):
    # Gr(4,9) has 1,662,804 linear extensions and Flag(7) 23,178,480; they
    # are counted over the ideal masks and refused before any is listed
    heights = ",".join(map(str, cli.interior_weight(grassmann_lattice(4, 9))))
    argv = [heights if x == "HEIGHTS" else x for x in argv]
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - start < 2
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "TooLarge"


def test_face_keys_resolve_without_enumerating_the_cone(capsys, monkeypatch):
    def no_enumeration(K):
        raise RuntimeError("a face key was resolved by enumerating the cone")

    monkeypatch.setattr("hibikit.cone.enumerate_faces", no_enumeration)
    key = '[["14","23"]]'
    report = run_json(capsys, ["subdivide", "--grassmann", "2", "5", "--face", key])
    assert report["face"] == key
    key = '[["{p,q}","{p,r}"]]'
    report = run_json(capsys, ["weightpoly", "--boolean", "3", "--face", key])
    assert report["face"] == key


def test_face_key_past_the_enumeration_cap(capsys):
    # a key is resolved by closing its own pairs, without enumerating B4's
    # 22,108 faces; of the 24 linear extensions the four that start with
    # p, q in either order merge in pairs
    report = run_json(capsys, ["subdivide", "--boolean", "4", "--face", '[["{p}","{q}"]]'])
    assert report["part_count"] == 22


@pytest.mark.parametrize("key", [
    '[["{p,q}","{p,r}"],["{p}","{q}"]]',  # canonical spelling, but not closed
    '[["{p}","{r}"],["{p,q}","{q,r}"]]',  # a face's pairs in the wrong order
    '[["{q,r}","{p,q}"]]',                # a face's pair spelled backwards
    '[["{p,q}", "{q,r}"]]',               # non-canonical whitespace
    '[["{p}","{q}"],["{p}","{q}"]]',      # a repeated pair
    '[["{p}"]]',                          # not a pair
    '{"{p}": "{q}"}',                     # not a list of pairs
    '[[',                                 # not JSON
])
def test_keys_naming_no_face_are_bad_params(key, capsys):
    code, out, err = run_cli(capsys, ["weightpoly", "--boolean", "3", "--face", key])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "BadParams", "message": f"no face of the cone has key {key}"}


@pytest.mark.parametrize("argv, poset_file", [
    ("subdivide --boolean 2 --w 0,1,1", None),
    # an entry past cli.MAX_ENTRY_DIGITS, counted on its text: the exponent
    # alone would make Fraction build a million-digit integer
    ("subdivide --boolean 2 --w 1,1,1,1e999999", None),
    ("subdivide --boolean 2 --w 1,1,1,1e-999999", None),
    ("permutahedron --boolean 2 --w 1,1,1," + "9" * 5000, None),
    ("subdivide --boolean 2 --face full --check 1", None),
    ("subdivide --boolean 2 --face full --check -2", None),
    # past cli.MAX_CHECK, which guards TRIALS though nothing is sampled
    ("subdivide --boolean 2 --face full --check 21", None),
    ("subdivide --boolean 2 --face full --check 5000", None),
    ("certify --boolean 2 --lmax 0", None),
    ("lattice --poset FILE", "elem a\nbogus b\n"),
    ("lattice --poset FILE", "elem a\nelem a\n"),
    ("lattice --poset FILE", '{"elements": ["a", "a"], "covers": []}'),
    ("lattice --poset FILE", '{"elements": 5, "covers": []}'),
    ("lattice --poset FILE", '{"elements": ["a"]}'),
    ("lattice --poset FILE", '{"elements": [1, 2], "covers": []}'),
    ("lattice --poset FILE", '{"elements": "ab", "covers": []}'),
    ("lattice --poset FILE", '{"elements": ["a", "b"], "covers": {"ab": 1}}'),
    # an ideal's label is its members, comma separated, in braces
    ("lattice --poset FILE", "elem a\nelem b\nelem a,b\n"),
    ("lattice --poset FILE", '{"elements": ["a", "b", "a,b"], "covers": []}'),
    ("lattice --poset FILE", '{"elements": ["a b"], "covers": []}'),
    ("lattice --poset FILE", '{"elements": [""], "covers": []}'),
    ("lattice --poset FILE", "join x y {z}\nmeet x y w\n"),
    # a file gives covers or join/meet tables, not both
    ("lattice --poset FILE", "elem x\nelem y\ncover x y\njoin x y y\nmeet x y x\n"),
    # covers that close a cycle or name an element the file does not list
    ("lattice --poset FILE", "elem a\nelem b\ncover a b\ncover b a\n"),
    ("lattice --poset FILE", '{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}'),
    ("lattice --poset FILE", "elem a\ncover a z\n"),
    ("lattice --poset FILE", '{"elements": ["a"], "covers": [["a", "z"]]}'),
    # labels spell one digit per index: 10 would read as 1 and 0
    ("lattice --grassmann 1 10", None),
    ("lattice --grassmann 2 10", None),
    ("lattice --flag 10", None),
], ids=["short weight", "huge exponent", "huge negative exponent", "5000 digits", "one trial", "negative trials",
        "trials past the guard", "more trials than samples", "degree 0", "bad poset line",
        "repeated elem", "repeated JSON element", "JSON elements not a list",
        "JSON without covers", "JSON elements not strings", "JSON elements a string",
        "JSON covers not pairs", "comma label", "JSON comma label", "JSON space label",
        "JSON empty label", "table brace label", "covers and tables", "cover cycle", "JSON cover cycle",
        "unknown cover label", "JSON unknown cover label", "Gr(1,10)", "Gr(2,10)",
        "Flag(10)"])
def test_malformed_input_is_bad_params(tmp_path, capsys, argv, poset_file):
    # exit 1 means a certification ran and failed; bad input never runs one
    path = tmp_path / "poset.txt"
    if poset_file is not None:
        path.write_text(poset_file, encoding="utf-8")
    code, out, err = run_cli(capsys, argv.replace("FILE", str(path)).split())
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "BadParams"


@pytest.mark.parametrize("argv, poset_file", [
    (["subdivide", "--boolean", "2", "--face", "[" * 5000], None),
    (["lattice", "--poset", "FILE"], '{"elements": ' + "[" * 200_000),
], ids=["face key", "poset file"])
def test_deeply_nested_json_is_bad_params(tmp_path, capsys, argv, poset_file):
    # JSON nested past the decoder's recursion limit is bad input, not a
    # failed certification or a crash
    path = tmp_path / "poset.json"
    if poset_file is not None:
        path.write_text(poset_file, encoding="utf-8")
    code, out, err = run_cli(capsys, [str(path) if x == "FILE" else x for x in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "BadParams"


@pytest.mark.parametrize("poset_file, message", [
    ("elem a\nelem b\ncover a b\ncover b a\n", "cover relations contain a cycle"),
    ('{"elements": ["a"], "covers": [["a", "z"]]}', "unknown element 'z'"),
])
def test_poset_file_order_faults_keep_their_message(tmp_path, capsys, poset_file, message):
    path = tmp_path / "poset.txt"
    path.write_text(poset_file, encoding="utf-8")
    code, out, err = run_cli(capsys, ["lattice", "--poset", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "BadParams", "message": message}


@pytest.mark.parametrize("poset_file, label", [
    ("elem p\nelem {q}\ncover p {q}\n", "{q}"),
    ('{"elements": ["p", "q r"], "covers": [["p", "q r"]]}', "q r"),
    ("join x,y z x,y\nmeet x,y z z\n", "x,y"),
])
def test_label_rule_names_the_label(tmp_path, capsys, poset_file, label):
    path = tmp_path / "poset.txt"
    path.write_text(poset_file, encoding="utf-8")
    code, out, err = run_cli(capsys, ["lattice", "--poset", str(path)])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "BadParams" and repr(label) in error["message"]


def test_largest_builtin_index_is_nine(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "--grassmann", "1", "9"])
    assert code == 0
    assert json.loads(out)["maximal_chains"] == 1


def test_flag_six_chain_count(capsys):
    # the chains are counted, not listed: Flag(6) has 33592 of them
    code, out, _ = run_cli(capsys, ["lattice", "--flag", "6"])
    assert code == 0
    report = json.loads(out)
    assert (report["size"], report["maximal_chains"]) == (62, 33592)


def test_parse_vector_fractions():
    # integers over the lcm of the denominators
    assert parse_vector("1, 3/2  2", 3) == ((2, 3, 4), 2)
    assert parse_vector("1/6 -1/4 0", 3) == ((2, -3, 0), 12)


TOKEN_PARTS = st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "00"]),
                        st.integers(0, 10**40))


@settings(max_examples=200, deadline=None)
@given(st.lists(TOKEN_PARTS, min_size=1, max_size=6), st.sampled_from([",", " ", ", ", ",\t"]))
def test_integer_weights_skip_fraction(parts, sep):
    # ASCII [+-]?[0-9]+ tokens, signs, -0 and leading zeros included, give
    # what Fraction gives them over den 1, without calling Fraction
    import fractions

    tokens = [sign + zeros + str(v) for sign, zeros, v in parts]
    want = tuple(int(Fraction(t)) for t in tokens)

    def no_fraction(*args):
        raise AssertionError("an integer weight took the Fraction path")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fractions, "Fraction", no_fraction)
        assert parse_vector(sep.join(tokens), len(tokens)) == (want, 1)


@pytest.mark.parametrize("text, want", [
    ("1_0 2", ((10, 2), 1)),        # int() and Fraction() both read 1_0
    ("\u0661\u0662 3", ((12, 3), 1)),  # Arabic-Indic digits
    ("\u00b2 1", None),               # a superscript: isdigit, but no number
    ("1__0 1", None),
    ("+-1 1", None),
    ("3/3 -2/1", ((1, -2), 1)),
], ids=["underscore", "non-ASCII digits", "superscript", "double underscore",
        "two signs", "fractions over 1"])
def test_other_weights_get_fractions_values(text, want):
    # every token but ASCII digits after one optional sign takes the
    # Fraction path (test_startup_loads_only_what_the_subcommand_runs), and
    # gets Fraction's value or its message
    if want is None:
        with pytest.raises(BadParams, match="bad weight vector entry: Invalid literal"):
            parse_vector(text, 2)
    else:
        assert parse_vector(text, 2) == want


def test_canonical_json_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


TRICKY = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u2029é漢😀a ') | st.characters())
# strings a %-template would misread if they were spliced into it
PERCENT = st.lists(st.sampled_from(["%", "%d", "%s", "%%", "%(a)s", "d", '"', "\\"])).map("".join)
LEAVES = st.integers() | TRICKY | PERCENT


def uniform_arrays(leaves):
    """Lists of up to four rows whose levels below the top, up to
    three, each hold rows of one nonzero length, down to leaves drawn from
    `leaves`: the arrays the writer fills from one template."""
    def of_shape(shape):
        rows = leaves
        for k in reversed(shape):
            row = st.lists(rows, min_size=k, max_size=k)
            rows = row | row.map(tuple)
        return st.lists(rows, max_size=4)

    return st.lists(st.integers(1, 3), max_size=3).flatmap(of_shape)


# keys a %-template would misread if they were not escaped into it
KEYS = st.sampled_from(["%", "%%", "%d", "%s", "a", "b", '"', "\\", "\n", "é"]) | TRICKY


@st.composite
def record_lists(draw, inner):
    """Lists of up to five dicts that share one key set and, key by key,
    one shape: leaves, arrays of one length, empty lists or tuples, and
    nested records, arrays being lists or tuples row by row; the lists the
    writer fills from one template. Half are made ragged: one row gets a
    value of any shape for one key, or loses a key."""
    def shape(depth):
        nested = ["record"] if depth < 2 else []
        kind = draw(st.sampled_from(["int", "str", "array", "empty", *nested]))
        if kind == "int":
            return st.integers()
        if kind == "str":
            return TRICKY | PERCENT
        if kind == "empty":
            return st.sampled_from([[], ()])
        if kind == "array":
            n = draw(st.integers(1, 3))
            row = st.lists(shape(depth + 1), min_size=n, max_size=n)
            return row | row.map(tuple)
        keys = draw(st.lists(KEYS, unique=True, max_size=3))
        return st.fixed_dictionaries({k: shape(depth + 1) for k in keys})

    keys = draw(st.lists(KEYS, unique=True, max_size=4))
    rows = draw(st.lists(st.fixed_dictionaries({k: shape(1) for k in keys}),
                         min_size=1, max_size=5))
    if keys and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            row[key] = draw(inner)
        else:
            del row[key]
    return rows


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | TRICKY,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(TRICKY, inner)
                   | uniform_arrays(st.integers()) | uniform_arrays(TRICKY | PERCENT)
                   | uniform_arrays(LEAVES)  # mixed ints and strs
                   # ragged rows and empty inner lists
                   | st.lists(st.lists(st.integers())) | st.lists(st.lists(PERCENT))
                   | st.lists(st.lists(st.lists(st.integers(), max_size=2), max_size=2))
                   | st.lists(st.lists(st.integers(), min_size=1).map(tuple))
                   | record_lists(inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_is_the_stdlib_layout(obj):
    # hibikit's writer gives the bytes of the stdlib's pure-Python indent
    # encoder, the one it replaces
    want = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(obj) == want


def long_lists():
    """Lists longer than jsonwriter.CHUNK_ROWS rows: records of short rows, which
    fill one chunk, uniform or with one ragged row, and rows of 300 ints,
    about 90 to a chunk, of one length or of a length that changes every
    100 rows, so that some chunks are uniform and some ragged."""
    rows = [{"key": f"%{i}", "point": [[i, 1], [-i, 2]], "tight": []} for i in range(1300)]
    ragged = [dict(row) for row in rows]
    ragged[700]["point"] = [[1, 2]]
    wide = [list(range(i, i + 300)) for i in range(600)]
    return {"uniform": rows, "ragged": ragged, "wide": wide,
            "chunk shapes": [row[:300 - i // 100] for i, row in enumerate(wide)],
            "ints": list(range(-600, 600)), "strs": tuple(map(chr, range(32, 1400)))}


@pytest.mark.parametrize("name", list(long_lists()))
def test_long_lists_are_filled_chunk_by_chunk(name):
    obj = long_lists()[name]
    assert len(obj) > jsonwriter.CHUNK_ROWS
    want = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(obj) == want
    assert canonical_json({"a": [obj]}) == json.dumps(
        {"a": [obj]}, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class Label(str):
    """A str subclass, which the stdlib writes as a key and hibikit's does not."""


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), {1, 2}, frozenset(), b"bytes",
    {1: "int key"}, {True: "bool key"}, {None: "null key"}, {("a",): "tuple key"},
    {"a": [1, 2.0]}, [[1, 2], [3, Fraction(4)]], [{"a": {0.5}}],
    [[[1, 2], [3, 4]], [[5, 6], [7, 0.5]]], [[[Fraction(1, 2)]], [[3]]],
    {Label("a"): 1}, [{Label("a"): 1}, {Label("a"): 2}], [{1: "a"}, {1: "b"}],
    [{"a": 1, 2: 3}, {"a": 4, 2: 5}],
], ids=["float", "Fraction", "set", "frozenset", "bytes", "int key", "bool key",
        "None key", "tuple key", "nested float", "Fraction in a row", "nested set",
        "float in a 3-level array", "Fraction in a 3-level array", "str subclass key",
        "str subclass key in records", "int key in records", "mixed keys in records"])
def test_canonical_json_rejects_what_it_cannot_spell(obj):
    # the stdlib would write some of these (floats, int keys); the writer
    # never picks a spelling for a type it does not know
    with pytest.raises(TypeError):
        canonical_json(obj)


MIXED_JOBS = [
    ["cone", "--grassmann", "2", "4"],
    ["lattice", "--boolean", "2"],
    ["certify", "--boolean", "2", "--lmax", "2"],
    ["subdivide", "--boolean", "2", "--face", "bogus"],  # exit 2, a record on stderr
    ["gt", "--n", "3", "census"],
    ["permutahedron", "--boolean", "2", "--w", "0,1,1,3"],
]


def test_main_reenters_on_one_parser(capsys, monkeypatch):
    # main builds its parser once per process: a mix of jobs, an argv that
    # argparse rejects, and the mix again give the same codes and bytes
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # "hibikit", or "hibikit <command>" per subparser
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    first = [run_cli(capsys, argv) for argv in MIXED_JOBS]
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0, 0]
    with pytest.raises(SystemExit) as stop:
        main(["cone", "--grassmann", "2", "--bogus"])
    assert stop.value.code == 2
    assert "usage: hibikit cone" in capsys.readouterr().err
    assert [run_cli(capsys, argv) for argv in MIXED_JOBS] == first
    assert built.count("hibikit") == 1


@pytest.mark.parametrize("argv", [
    ["cone", "--boolean", "2", "--bogus"],  # the top-level parser reports it
    ["cone", "--boolean", "x"],             # the subparser reports it
    ["cone", "--grassmann", "2", "--bogus"],
    ["flag", "--n", "3", "--bogus"],
    ["flag", "--n", "3", "census", "extra"],
    ["gt", "--n", "3", "bogus"],
    ["cone", "-h"], ["flag", "-h"], ["-h"], ["bogus"], [],
    ["flag", "--n", "3", "census"],
    ["lattice", "--boolean", "2"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_one_parse_matches_the_top_level_parse(argv, capsys, monkeypatch):
    # main parses a command's arguments with its subparser alone; exit
    # code, stdout and stderr are those of the top-level parse it skips
    def outcome(run):
        try:
            code = run()
        except SystemExit as stop:
            code = stop.code
        return (code, *capsys.readouterr())

    def top_level():
        args = cli._build_parser()[0].parse_args(argv)
        return args.func(args)

    parses = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    got = outcome(lambda: main(argv))
    if argv and argv[0] in ("cone", "flag", "gt", "lattice"):
        assert parses == [f"hibikit {'gt' if argv[0] == 'flag' else argv[0]}"]
    assert got == outcome(top_level)


# Prints main(argv)'s exit status and the modules that `import hibikit.cli`
# and that call load, beyond those the bare interpreter had loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import hibikit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = hibikit.cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def loaded_modules(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])})
    status, modules = json.loads(proc.stdout)
    assert status == code, argv
    return set(modules)


def test_startup_loads_only_what_the_subcommand_runs():
    # start-up, the import and main([]) that builds the parser, loads four
    # package modules and none of the heavy stdlib ones; each subcommand
    # then loads its own kernels
    loaded = loaded_modules([], 2)  # argparse rejects the empty argv
    assert {m for m in loaded if m.startswith("hibikit.")} == {
        "hibikit.cli", "hibikit.errors", "hibikit.lattice", "hibikit.poset"}
    assert not loaded & {"dataclasses", "inspect", "fractions", "csv"}
    for argv, absent in [("certify --boolean 2 --lmax 2", {"flaggt", "weightpoly"}),
                         ("gt --n 3", {"hibi", "weightpoly"}),
                         ("lattice --grassmann 2 4", {"flaggt", "cone"})]:
        loaded = loaded_modules(argv.split(), 0)
        assert not loaded & {f"hibikit.{m}" for m in absent}, argv
        assert "dataclasses" not in loaded, argv
    # the JSON writer loads with the first JSON output, not at start-up
    assert "hibikit.jsonwriter" in loaded
    # integer weights never import fractions; any other token does
    for w, fractions in [("0,+1,-0,003", False), ("0,1_0,1,30", True),
                         ("\u0660,1,1,3", True), ("0,1/2,1/2,3/2", True)]:
        loaded = loaded_modules(["permutahedron", "--boolean", "2", "--w", w], 0)
        assert ("fractions" in loaded) == fractions, w


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hibikit.cli", "lattice", "--boolean", "2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["maximal_chains"] == 2
