import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from partmaps import cli, core  # noqa: E402


@pytest.fixture
def cold_memos():
    """Drop every kept profile, so that each profile handed out next starts
    with an empty memo: those ``profile_of`` keeps by block sizes and those
    ``count`` keeps by text."""
    core._profile_of_sizes.cache_clear()
    cli._count_profile.cache_clear()
