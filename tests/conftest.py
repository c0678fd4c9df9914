"""Every test starts from a cold cli cache.

cli.main keeps the last job's lattice, with the cone and the last resolved
face it holds, for the next call in the process. A test that counts what a
job builds must not find the lattice an earlier test warmed.
"""

import pytest

from hibikit import cli


@pytest.fixture(autouse=True)
def cold_lattice_cache():
    cli._lattice.cache_clear()
    yield
    cli._lattice.cache_clear()
