"""Golden outputs: the sha256 of stdout for one small run of each subcommand.

The digests pin the exact bytes, so a refactor that changes any number,
key order or formatting fails here. Re-record a digest only for an intended
change of output, and say so in the change description.
"""

import hashlib

import pytest

from hibikit.cli import main

GOLDEN = [
    ("lattice --flag 3",
     "01ff33d806635caac777e03d45a3642e5b97df536a8694137b80a5682566c86c"),
    ("cone --boolean 3",
     "9b2b4f8d04f9bdfec538f373971d5f8d5bce42aace48217fad40ff88a1e54ad4"),
    ("subdivide --boolean 3 --face full --check 3 --seed 1",
     "0948918885c6b89662e49ba93c50dcf3c9316f29fdd64d9c4332733cef47baf6"),
    ("certify --boolean 2 --lmax 3",
     "e66a32089f85fc7254983ab664d8625121e646a71cf312c7b66fdafb1748c3ba"),
    ("weightpoly --grassmann 2 4 --face apex",
     "83ceb1eef306bf36084d756e2b0c28f7d3d70e07a1c7c0ab660f000737b9d042"),
    ("gt --n 3",
     "79ed290cec5164af7b1edd7c145fe3b20fbf0ea0af78a8047e58665d5ad1e68b"),
    ("permutahedron --boolean 3 --w 0,1,1,1,4,4,4,9",
     "c217968161e17f8474e794049d8e7de09b1abcb8fe68784aed33f59f36f2acf8"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stdout_digest(argv, digest, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
