"""Every test starts from cold cli and flaggt caches.

cli.main keeps the last job's lattice, with the cone and the last resolved
face it holds, for the next call in the process, flaggt keeps one
Gelfand-Tsetlin context per rank, and cli the sections of the last faces
gt jobs named on those contexts. A test that counts what a job builds
must not find a lattice or a context an earlier test warmed.
"""

import pytest

from hibikit import cli, flaggt


def _clear():
    cli._lattice.cache_clear()
    cli._gt_sections.cache_clear()
    flaggt.gelfand_tsetlin.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    _clear()
    yield
    _clear()
