import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# this tree's package, after every PYTHONPATH entry, so that
# ``PYTHONPATH=<other tree>/src pytest`` tests the other tree's package
sys.path.append(str(ROOT / "src"))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
