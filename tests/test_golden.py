"""Golden outputs: the sha256 of stdout for one small run of each subcommand.

The digests pin the exact bytes, so a refactor that changes any number,
key order or formatting fails here. Re-record a digest only for an intended
change of output, and say so in the change description. Each job also pins
two facet totals: the facets the double description kernel
(exactgeom.facet_hyperplanes) returns over the whole job, a work count, and
the facets its output writes, the sum of the lengths of its hyperplanes
lists, so a lost or extra facet names itself. Only the permutahedra run the
kernel. A weightpoly job certifies its weight polytope through the apex
projection and takes its distinguished faces' vertices without a hull, and
a gt job reads each section's facets off its part order's covers.
A job that reads a --poset file names one of POSET_FILES, written to a
temporary directory first.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hibikit
from hibikit import exactgeom
from hibikit.cli import main


def _table_file() -> str:
    """join/meet lines for the ideals of {a < c, b}, under labels unrelated
    to the ideals and in no canonical order."""
    sets = {"o": "", "s": "a", "t": "b", "v": "ab", "w": "ac", "u": "abc"}
    name = {frozenset(v): k for k, v in sets.items()}
    lines = []
    for x, y in itertools.combinations(["u", "w", "o", "t", "v", "s"], 2):
        X, Y = frozenset(sets[x]), frozenset(sets[y])
        lines += [f"join {x} {y} {name[X | Y]}", f"meet {x} {y} {name[X & Y]}"]
    return "\n".join(lines) + "\n"


# the JSON poset lists its elements out of irreducible order: poset_P is
# (b, a, c), while the ideal labels follow the file's order (c, b, a)
POSET_FILES = {
    "reordered.json": '{"elements": ["c", "b", "a"], "covers": [["a", "c"]]}\n',
    "tables.txt": _table_file(),
    "empty.json": '{"elements": [], "covers": []}\n',
    "one.json": '{"elements": ["a"], "covers": []}\n',
}

GOLDEN = [
    ("lattice --flag 3",
     "01ff33d806635caac777e03d45a3642e5b97df536a8694137b80a5682566c86c", 0, 0),
    # recorded with the scan of all 2^19 subsets for the order ideals
    ("lattice --flag 6",
     "8cb4e540fd49e4adc939e7f0436c3f9f9655113a005578552680d4148357c5e0", 0, 0),
    # recorded with the builtins validated on their n×n join/meet tables
    ("lattice --grassmann 3 6",
     "4b5aaeb0edc325be7e9dbf5a27669c7b7ef5d6e74fa61de9eb14c4fc1ca98880", 0, 0),
    ("lattice --grassmann 4 8",
     "2ebcba3d2b748e3361d8ac735800569a15307984fea9a4c0681c64d0d7eaaa68", 0, 0),
    ("cone --boolean 3",
     "9b2b4f8d04f9bdfec538f373971d5f8d5bce42aace48217fad40ff88a1e54ad4", 0, 0),
    ("subdivide --boolean 3 --face full --check 3 --seed 1",
     "0948918885c6b89662e49ba93c50dcf3c9316f29fdd64d9c4332733cef47baf6", 0, 0),
    # a weight with mixed non-unit denominators pins the scaling by their
    # lcm; recorded with the Fraction subdivision, before it moved to integers
    ("subdivide --boolean 3 --w 1/5,7/10,8/15,19/20,31/30,97/60,77/60,27/10 --check 3 --seed 1",
     "986357aaad5488fa4f9f017ee294aab690c1037f76b16ae0d6b2d543c168b513", 0, 0),
    ("certify --boolean 2 --lmax 3",
     "e66a32089f85fc7254983ab664d8625121e646a71cf312c7b66fdafb1748c3ba", 0, 0),
    # recorded with the Polynomial generators and per-order sublattices;
    # they reach the degree cap and pack ten elements into one int
    ("certify --boolean 3 --lmax 6",
     "a1458e8793d0f119b53793d367fc828035e125e392a4ac584f824e572719c210", 0, 0),
    ("certify --grassmann 2 5 --lmax 4",
     "0f61da15678db4fb9a46a4fabc74495efe6d18e0657d8cf3aa1df8889f3f71c4", 0, 0),
    ("certify --flag 3 --lmax 6",
     "c08ac147fac4f28a1afa3b8ee7c8f63844c7b3b8c3775f6d8d061a1c9c792eb3", 0, 0),
    ("weightpoly --grassmann 2 4 --face apex",
     "83ceb1eef306bf36084d756e2b0c28f7d3d70e07a1c7c0ab660f000737b9d042", 0, 0),
    ("gt --n 3",
     "79ed290cec5164af7b1edd7c145fe3b20fbf0ea0af78a8047e58665d5ad1e68b", 0, 10),
    ("permutahedron --boolean 3 --w 0,1,1,1,4,4,4,9",
     "c217968161e17f8474e794049d8e7de09b1abcb8fe68784aed33f59f36f2acf8", 6, 6),
    # recorded with the slopes filtered through a hull before they became
    # the vertices: B4's interior (24 vertices), a B3 boundary weight (5)
    # and a Gr(2,4) weight whose permutahedron is a segment (2)
    ("permutahedron --boolean 4 --w=0,1,1,1,1,4,4,4,4,4,4,9,9,9,9,16",
     "ad090370aec45fd98e2fa79a513b62941b7b3e5ba3d2fa551d6e429085e06d36", 14, 14),
    ("permutahedron --boolean 3 --w=0,0,0,0,0,1,1,6",
     "a02c72f708da0638e86569ecd2c0612b47bd67234dd9ac55f29f267e26098ecd", 5, 5),
    ("permutahedron --grassmann 2 4 --w 0,1,4,4,9,16",
     "5459450998c982e0a815d7d20f4b337fdc60732227b2760762fefcdd98a18ace", 2, 2),
    # recorded with the 2^m subset scan of faces, which took about a minute
    ("cone --grassmann 3 6",
     "a9a6f156f95647a25b19f37b2e822cc52e6955898d73a7161eb695ee5e6ebfeb", 0, 0),
    # 90,112 faces; recorded with a rank per face, its cap lifted, before
    # the dimensions were read off the face lattice
    ("cone --flag 5",
     "186fbdc9b77861904abb0f430c5934ba4fb92876044e01904c921adac1d249a9", 0, 0),
    # keyed faces resolved by LP: these outputs carry _close_tight witnesses
    ('subdivide --grassmann 2 5 --face [["14","23"]] --check 3 --seed 1',
     "1e8f334314f2a29caab129346226d81f3f8bc1b15a559b813ee432adb14e268b", 0, 0),
    ('weightpoly --boolean 3 --face [["{p,q}","{p,r}"]]',
     "c7bbfb62c5558b24de8c60d3f35ac91a03bad1e300272072586c0cfef891a384", 0, 0),
    # the two jobs that were out of range for the subset-scan facet kernel:
    # it took about 5 s on the first, whose digest was recorded with it, and
    # never finished the second, whose digest was recorded with the double
    # description kernel (tests/test_flaggt.py checks its facets by an oracle)
    ("weightpoly --flag 4 --face apex",
     "3eaa919226afa0edcb92053259eb4c6d1a907df5b6a1bb8b3e632a969d4daf8e", 0, 0),
    ("gt --n 4 subdivide",
     "4325a683997821b17a7635a72367fe449de8abb75cf2b17d735197baa8ba52b3", 0, 108),
    # the full face's weight polytope is a simplex of dimension 14 and 13;
    # the digests were recorded when such H-descriptions were out of range
    # and membership fell back to one LP per point
    ("weightpoly --grassmann 2 6",
     "ceb56ea2206a361e35c8a2b9312fff50a37744331cfbf94aaf60247aea09fab1", 0, 0),
    ("weightpoly --flag 4",
     "a5ead3f5e34f8b312d0287e535d59bd7e6c7fa1e70a734c98cd76ec99579e2ae", 0, 0),
    # 33,592 extensions; recorded when every point was pulled back and every
    # distinguished face ranked again, which took about 95 s in process
    ("weightpoly --flag 6",
     "f4950a2d8dd75f15450fc90783888d1769fed696ab0758136f14bcf470536d2d", 0, 0),
    # recorded when cone_K certified B5's 80 facets by LP, about 10 s
    ("subdivide --boolean 5 --face full",
     "998cdc0370c3f9b623a3f1e2443813e6a0acc2bdf8c0b42f8ca301b8fc92146e", 0, 0),
    # recorded with the adjacency graph scanning all pairs of extensions:
    # B6's 720 and Flag(5)'s 286
    ("subdivide --boolean 6 --face full --check 3 --seed 1",
     "1133cb9fd853930c730352647e656d6148e6180199173873285e9d6168e9c984", 0, 0),
    ("subdivide --flag 5 --face full --check 3 --seed 1",
     "31e7cf518f702003252ba39b92c1134e00e284f83dbc93e6256d60501208fc9b", 0, 0),
    # 33,592 parts, most of them one simplex, whose covers are written
    # without a Poset; recorded when each part's covers came from a
    # validated Poset, which took about 9 s in process
    ("subdivide --flag 6 --face full",
     "721363297d8a2fc7986fc317ecef345d8e0cb2d6fec7738f83196468173e85c7", 0, 0),
    # recorded with the Fraction census and patterns, which took about 44 s
    # on the n = 5 census
    ("gt --n 4 vertices",
     "36f36a89c78b8dd95c86e132aee348db5efb4fdc1d0de7c947549b726c4fcbd9", 0, 0),
    ("gt --n 4 census",
     "34371d3acbb2ffe25521da4b37a7dd745c0e52a2dab2f85fa0128bfc01c77be7", 0, 0),
    # recorded with the label-dict vertex search: 358 vertices, and the
    # keyed Flag(3) face the polytopes workload subdivides
    ("gt --n 5 vertices",
     "eddd6a1067a2b133e9c2643df831976393ee0d1f6420b1f4df450037ecea71d0", 0, 0),
    ('gt --n 3 subdivide --face [["1","23"]]',
     "bf92bfb746e61fbd5b136ae098b7dc9145af20ffb79c8891436fcac2b09f013b", 0, 6),
    ("gt --n 5 census",
     "2a1b84701a8a02e4f1def1380aba46894f2b50b9559869e0a1677c896e793e90", 0, 0),
    # recorded with the sections cut on the Fraction marking; the full face
    # was recorded with each section's facets found by the double
    # description kernel: 286 parts
    ("gt --n 5 subdivide --face apex",
     "f1440fc9f9b6fdc1da9401d7e09c5aa300658965d922e3e35c91f1678e2b6198", 0, 20),
    ("gt --n 5 subdivide --face full",
     "d0e584f0573d6447fdbe4a117257af254d3d7bd81fab2c53ed10bf9abbbe8ae1", 0, 4004),
    # past the old n = 5 cap: 33,592 chains; the census that enumerated
    # each chain's vertices gave the same digest with its caps lifted, in
    # about 376 s
    ("gt --n 6 census",
     "ecf4b1750f0e9f3d3e920525f270e1f190f72878d285ad55690755d6d2d2fc68", 0, 0),
    # the --poset inputs, recorded with the pair-set posets and the
    # table-validated Birkhoff lattices
    ("lattice --poset reordered.json",
     "570c7da7e9a8ab37bad333be1baf1063df877e0df81b89f2f9fd49dfb084ad69", 0, 0),
    ("subdivide --poset reordered.json --face full --check 3 --seed 1",
     "f76129733be10f376b148cb12cfd7764ae8c271bb0fd5751ba515c4f1c229846", 0, 0),
    ("certify --poset reordered.json --lmax 3",
     "f3486e3bc8319f08da13b17dbc86c821740059df74fe5f5ba4ec0976eefac845", 0, 0),
    # the one-element lattice of the empty poset, and the 2-chain
    ("certify --poset empty.json --lmax 2",
     "913a103e13e4a810c3fff673f4fbb8538066b1e43ca9aa45e8c332974ff26ede", 0, 0),
    ("certify --poset one.json --lmax 2",
     "49c26b0a7046f778ba3990baa0348ed6e96c402881f82ce79b94a845a53c11f8", 0, 0),
    # the empty poset's full face has a one-row span: its samples need
    # coefficients past [-3, 3] from 8 trials on
    ("subdivide --poset empty.json --face full --check 8",
     "3f2939fda6c11446ee7c2f1226520b14528f7b99414407a286ec31c7661d4dee", 0, 0),
    ("subdivide --poset empty.json --face full --check 20",
     "9d329f3894739cd2d3ca52140b723b3ee0ab079fd325cd336429b83d25570d69", 0, 0),
    ("lattice --poset tables.txt",
     "2db0eca2f3f6a7b8994f42e2499954ff308a4f94622a41b49889f1be4e68469e", 0, 0),
]


def _written_facets(out: str) -> int:
    """The total length of the hyperplanes lists in a JSON output; 0 for the
    CSV that certify writes."""
    def walk(node):
        if isinstance(node, dict):
            return sum(len(v) if k == "hyperplanes" else walk(v) for k, v in node.items())
        if isinstance(node, list):
            return sum(walk(v) for v in node)
        return 0

    return walk(json.loads(out)) if out.startswith("{") else 0


@pytest.mark.parametrize("argv, digest, kernel_facets, written_facets", GOLDEN,
                         ids=[a for a, *_ in GOLDEN])
def test_stdout_digest(argv, digest, kernel_facets, written_facets, capsys, monkeypatch,
                       tmp_path):
    for name, text in POSET_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    found = []
    kernel = exactgeom.facet_hyperplanes

    def counting(*args, **kwargs):
        planes = kernel(*args, **kwargs)
        found.append(len(planes))
        return planes

    monkeypatch.setattr(exactgeom, "facet_hyperplanes", counting)
    code = main([str(tmp_path / a) if a in POSET_FILES else a for a in argv.split()])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert sum(found) == kernel_facets
    assert _written_facets(captured.out) == written_facets
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


# python -O strips assert statements; every certificate raises
# AssertionError itself, so it still runs in such a child
OPTIMIZED_PROBE = """
import contextlib, hashlib, io, json, sys
from hibikit.cli import main
from hibikit.flaggt import MarkedPoset, gt_poset
from hibikit.weightpoly import _integral_solution

assert False, "python -O keeps assert statements"  # stripped under -O
refused = []
for check in (lambda: _integral_solution([[2]], [[1]]),  # no integer solution
              lambda: MarkedPoset(gt_poset(3), (None,) * 4)):  # extremes unmarked
    try:
        check()
    except AssertionError as exc:
        refused.append(str(exc))
digests = {}
for argv in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    digests[argv] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps([refused, digests]))
"""


def test_certificates_run_under_python_O():
    jobs = ["weightpoly --grassmann 2 4 --face apex", "gt --n 3"]
    src = str(Path(hibikit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PROBE, *jobs],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    refused, digests = json.loads(proc.stdout)
    assert refused == ["solution is not integral", "extreme elements must be marked"]
    assert digests == {argv: [0, digest] for argv, digest, *_ in GOLDEN if argv in jobs}
