import os
from pathlib import Path

import pytest

import firstlook

SRC = Path(firstlook.__file__).resolve().parents[1]


@pytest.fixture
def child_env() -> dict:
    """Environment for a child interpreter that imports ``firstlook`` from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
