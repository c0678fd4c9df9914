"""Jobs in one process reuse the last job's lattice, cone and face, and
each rank's Gelfand-Tsetlin context with its vertices, and the sections of
the faces gt jobs named.

cli.main keeps the lattice of the last job that named one, the cone K-bar
on it and the last face resolved on that cone, with the span and the
subdivision the face keeps; a gt job reads flaggt's context for its rank,
and cli keeps the face key and sections of the last 32 (context, face
spec) pairs. These tests pin what a warm job still builds, that every
guard still runs, that a changed input is not served from the cache, that
the lattice cache holds one lattice, the rank memo one context per rank,
which builds its vertices once, and the section table at most 32 entries,
none for a refused spec. The last test runs the benchmark's seed-1 `faces` list
through main twice in this process and compares every output with its
recorded digest.
"""

import gc
import hashlib
import itertools
import json
import weakref
from pathlib import Path

import pytest

from hibikit import cli, cone, exactgeom, flaggt, lattice, subdivision
from hibikit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
B3_KEY = '[["{p,q}","{p,r}"]]'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def builds(monkeypatch):
    """Counts the diamond pairs, staircase tables, adjacency graphs, cones
    and subdivisions built, and the LPs solved, from here on."""
    built = {"pairs": 0, "tables": 0, "graphs": 0, "cones": 0, "subdivisions": 0, "lps": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lattice, "DiamondPair", counting("pairs", lattice.DiamondPair))
    monkeypatch.setattr(subdivision, "StaircaseTable",
                        counting("tables", subdivision.StaircaseTable))
    # an adjacency graph build reads the diamond pairs once, through the
    # name subdivision binds
    monkeypatch.setattr(subdivision, "diamond_pairs",
                        counting("graphs", subdivision.diamond_pairs))
    monkeypatch.setattr(cone, "MaxCone", counting("cones", cone.MaxCone))
    monkeypatch.setattr(subdivision, "Subdivision",
                        counting("subdivisions", subdivision.Subdivision))
    monkeypatch.setattr(exactgeom, "_run_simplex", counting("lps", exactgeom._run_simplex))
    return built


@pytest.mark.parametrize("sel, key", [(["--boolean", "3"], B3_KEY),
                                      (["--grassmann", "2", "5"], '[["14","23"]]')],
                         ids=["B3", "Gr25"])
def test_keyed_jobs_on_one_face_build_it_once(sel, key, capsys, builds):
    subdivide = ["subdivide", *sel, "--face", key, "--check", "3"]
    weightpoly = ["weightpoly", *sel, "--face", key]
    first = [run(capsys, subdivide), run(capsys, weightpoly)]
    assert [code for code, _, _ in first] == [0, 0]
    # the cold subdivide built everything once and closed the key by LP
    assert builds["pairs"] > 0 and builds["lps"] > 0
    assert (builds["tables"], builds["graphs"], builds["cones"]) == (1, 1, 1)
    # the check certifies the face's subdivision from its tight swaps, and
    # weightpoly reads that subdivision: one was built
    assert builds["subdivisions"] == 1
    for counter in builds:
        builds[counter] = 0
    again = [run(capsys, subdivide), run(capsys, weightpoly)]
    assert again == first
    # a warm job on the same face builds nothing
    assert builds == {"pairs": 0, "tables": 0, "graphs": 0, "cones": 0,
                      "subdivisions": 0, "lps": 0}


def test_weightpoly_keys_on_one_lattice_build_the_apex_span_once(capsys, monkeypatch):
    # every weight polytope is certified through the apex projection, read
    # in the apex span's indicator coordinates, so only the apex's own job
    # builds the apex span, an integer kernel of every diamond normal; the
    # cone keeps its apex face with the span that face keeps
    spans = []
    kernel = cone.integer_kernel
    monkeypatch.setattr(cone, "integer_kernel",
                        lambda rows, n: spans.append(len(rows)) or kernel(rows, n))
    for key in (B3_KEY, '[["{p}","{q}"]]', "apex", "apex"):
        assert run(capsys, ["weightpoly", "--boolean", "3", "--face", key])[0] == 0
    K = cone.cone_K(cli._lattice("boolean", 3))
    assert spans == [1, 1, len(K.pairs)]


def test_rewritten_poset_file_gives_the_new_lattice(tmp_path, capsys):
    path = tmp_path / "p.poset"
    path.write_text("elem p\nelem q\n", encoding="utf-8")
    square = run(capsys, ["cone", "--poset", str(path)])
    path.write_text("elem p\nelem q\nelem r\n", encoding="utf-8")
    cube = run(capsys, ["cone", "--poset", str(path)])
    assert json.loads(square[1])["face_count"] == 2
    assert json.loads(cube[1])["face_count"] == 22
    assert square == run(capsys, ["cone", "--boolean", "2"])
    assert cube == run(capsys, ["cone", "--boolean", "3"])


def test_boolean_cap_is_checked_on_a_warm_cache(capsys, monkeypatch):
    assert run(capsys, ["lattice", "--boolean", "3"])[0] == 0
    monkeypatch.setattr(cli, "MAX_BOOLEAN", 2)
    code, out, err = run(capsys, ["lattice", "--boolean", "3"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "BadParams"


@pytest.mark.parametrize("argv, poset_file", [
    (["lattice", "--grassmann", "5", "4"], None),                   # fails while building
    (["lattice", "--poset", "FILE"], "elem a\ncover a b\n"),        # a cover names no element
    (["lattice", "--poset", "/nonexistent/poset.json"], None),      # fails before the lookup
    (["subdivide", "--boolean", "3", "--face", '[["bogus","key"]]'], None),  # after it
])
def test_failed_call_leaves_the_cached_lattice(argv, poset_file, tmp_path, capsys, builds):
    assert run(capsys, ["cone", "--boolean", "3"])[0] == 0
    if poset_file is not None:
        (tmp_path / "p.poset").write_text(poset_file, encoding="utf-8")
        argv = [str(tmp_path / "p.poset") if x == "FILE" else x for x in argv]
    code, _, err = run(capsys, argv)
    assert code == 2, err
    for counter in builds:
        builds[counter] = 0
    assert run(capsys, ["cone", "--boolean", "3"])[0] == 0
    assert builds["pairs"] == builds["cones"] == 0


@pytest.mark.parametrize("then", [["cone", "--boolean", "2"],
                                  ["certify", "--grassmann", "2", "4", "--lmax", "1"],
                                  ["weightpoly", "--flag", "3", "--face", "apex"]])
def test_the_previous_lattice_is_freed(then, capsys):
    # a keyed job leaves B3, its cone and a resolved face in the cache; the
    # lattice and its cone refer to each other, so the collector frees them
    assert run(capsys, ["weightpoly", "--boolean", "3", "--face", B3_KEY])[0] == 0
    b3 = cli._lattice("boolean", 3)  # the cached lattice: no second build
    assert cone.cone_K(b3)._resolved[0] == B3_KEY
    held = weakref.ref(b3)
    del b3
    assert run(capsys, then)[0] == 0
    gc.collect()
    assert held() is None


def cold_outputs(capsys, jobs):
    """Each job's (code, out, err) from caches as cold as a fresh process's."""
    out = []
    for argv in jobs:
        cli._lattice.cache_clear()
        cli._gt_sections.cache_clear()
        flaggt.gelfand_tsetlin.cache_clear()
        out.append(run(capsys, argv))
    cli._lattice.cache_clear()
    cli._gt_sections.cache_clear()
    flaggt.gelfand_tsetlin.cache_clear()
    return out


# one round of the benchmark's polytopes list: the two ranks alternate with
# a lattice job, which takes the one-entry lattice cache
POLYTOPES_ROUND = [
    ["gt", "--n", "4", "vertices"],
    ["permutahedron", "--boolean", "3", "--w=0,1,1,1,4,4,4,9"],
    ["gt", "--n", "3"],
    ["gt", "--n", "3", "subdivide", "--face", '[["1","23"]]'],
    ["gt", "--n", "4", "census"],
    ["gt", "--n", "3", "subdivide", "--face", "[]"],
]


def test_polytopes_round_builds_each_rank_once(capsys, monkeypatch):
    cold = cold_outputs(capsys, POLYTOPES_ROUND)
    assert [code for code, _, _ in cold] == [0] * len(POLYTOPES_ROUND)
    inits, isos = [], []
    init, iso = flaggt.GelfandTsetlin.__init__, flaggt.gt_poset_iso

    def counting_init(self, n):
        inits.append(n)
        init(self, n)

    monkeypatch.setattr(flaggt.GelfandTsetlin, "__init__", counting_init)
    monkeypatch.setattr(flaggt, "gt_poset_iso", lambda gt, L: isos.append(gt.n) or iso(gt, L))
    for _ in range(2):
        assert [run(capsys, argv) for argv in POLYTOPES_ROUND] == cold
    # rank 4 cuts no sections, so it never reads the isomorphism
    assert sorted(inits) == [3, 4]
    assert isos == [3]


def test_polytopes_round_builds_the_vertices_once_per_rank(capsys, monkeypatch):
    # gt_vertices depends on n alone, and the rank's context keeps them
    cold = cold_outputs(capsys, POLYTOPES_ROUND)
    built = []
    vertex = flaggt.GTVertex
    monkeypatch.setattr(flaggt, "GTVertex", lambda *args: built.append(args) or vertex(*args))
    for _ in range(2):
        assert [run(capsys, argv) for argv in POLYTOPES_ROUND] == cold
    # rank 4's 40 vertices, built in the first round alone
    assert len(built) == 40
    assert flaggt.gt_vertices(flaggt.gelfand_tsetlin(4)) == tuple(vertex(*args) for args in built)
    assert len(built) == 40


@pytest.fixture
def cuts(monkeypatch):
    """The (rank, face key) of each gt_subdivision call from here on."""
    seen = []
    kernel = flaggt.gt_subdivision
    monkeypatch.setattr(flaggt, "gt_subdivision",
                        lambda gt, F: seen.append((gt.n, F.key())) or kernel(gt, F))
    return seen


def test_polytopes_round_cuts_each_face_once_per_spec(capsys, cuts):
    # Flag(3)'s two faces, named by three specs: full (the default face of
    # gt --n 3), [] and [["1","23"]]; full and [] spell one face, whose
    # sections are kept once
    cold = cold_outputs(capsys, POLYTOPES_ROUND)
    assert [code for code, _, _ in cold] == [0] * len(POLYTOPES_ROUND)
    cuts.clear()
    for _ in range(2):
        assert [run(capsys, argv) for argv in POLYTOPES_ROUND] == cold
    assert sorted(cuts) == sorted([(3, "[]"), (3, '[["1","23"]]')])
    assert cli._gt_sections.cache_info().currsize == 2


def test_sections_are_kept_per_context(capsys, cuts):
    # a new context for the rank, as after gelfand_tsetlin.cache_clear(),
    # cuts its sections again
    argv = ["gt", "--n", "3", "subdivide", "--face", '[["1","23"]]']
    first = run(capsys, argv)
    assert run(capsys, argv) == first
    flaggt.gelfand_tsetlin.cache_clear()
    assert run(capsys, argv) == first
    assert cuts == [(3, '[["1","23"]]')] * 2


@pytest.mark.parametrize("key", ['[["bogus","key"]]', '[["1","23"]', '[["1","23"],["1","23"]]'],
                         ids=["unknown pair", "bad JSON", "not as the key spells it"])
def test_refused_spec_keeps_no_sections(key, capsys):
    code, out, err = run(capsys, ["gt", "--n", "3", "subdivide", "--face", key])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "BadParams"
    assert cli._gt_sections.cache_info().currsize == 0


def test_flag4_sweep_keeps_at_most_32_faces(capsys, cuts):
    # all 34 specs of Flag(4)'s 32 faces, twice: full and [] spell one face,
    # apex and the key of every pair another, so the 32-entry table holds
    # every face and every output is the cold one
    code, out, _ = run(capsys, ["cone", "--flag", "4"])
    assert code == 0
    keys = [row["key"] for row in json.loads(out)["faces"]]
    assert len(keys) == 32
    jobs = [["gt", "--n", "4", "subdivide", "--face", spec] for spec in ["full", "apex", *keys]]
    cold = cold_outputs(capsys, jobs)
    assert [code for code, _, _ in cold] == [0] * len(jobs)
    cuts.clear()
    for _ in range(2):
        assert [run(capsys, argv) for argv in jobs] == cold
        assert cli._gt_sections.cache_info().currsize == 32
    # each face is cut once, in the first pass
    assert len(cuts) == 32 and len(set(cuts)) == 32


def test_rejected_rank_leaves_the_memo_empty(capsys):
    # the command line rejects a rank past MAX_GT_RANK, and sections past
    # MAX_SECTION_RANK, before it builds a GelfandTsetlin, whose
    # constructor rejects nothing
    for argv, error in ((["gt", "--n", "7"], "BadParams"),
                        (["gt", "--n", "6", "subdivide"], "TooLarge")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == error
    assert flaggt.gelfand_tsetlin.cache_info().currsize == 0


def test_seed1_faces_list_keeps_its_digests_in_a_warm_process(tmp_path, capsys, monkeypatch):
    # the poset files go where the benchmark writes them, so each argv is
    # the digest's key
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    digests = json.loads((PERFBENCH / "digests.json").read_text())["faces"]
    seconds = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    monkeypatch.chdir(tmp_path)
    workdir = Path(".perfbench_work") / "faces"
    workdir.mkdir(parents=True)
    faces = WORKLOADS["faces"]
    for _ in range(2):
        checked = 0
        for unit in itertools.islice(faces.units(1, workdir), faces.list_units(seconds)):
            out = None
            while True:
                try:
                    job = unit.steps.send(out)
                except StopIteration:
                    break
                code, out, err = run(capsys, job.argv)
                assert code == 0, (job.argv, err)
                job.check(out)
                key = " ".join(job.argv)
                assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[key], key
                checked += 1
        assert checked == 48
