"""Which tree's package the suite tests.

`conftest.py` appends this tree's ``src`` to ``sys.path``, after every
``PYTHONPATH`` entry, so that ``PYTHONPATH=<other tree>/src pytest`` tests
the other tree's package, as a check against a parent commit needs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_first_pythonpath_entry_holding_the_package_wins():
    entries = [Path(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    holders = [p for p in entries if (p / "cbnctrl" / "__init__.py").is_file()]
    import cbnctrl

    if holders:
        assert Path(cbnctrl.__file__).resolve().parent.parent == holders[0].resolve()


def test_a_pythonpath_package_goes_ahead_of_this_tree(tmp_path):
    # two stand-in packages behind an entry without one: the test above,
    # run by a pytest of its own, must import the first
    for name in ("one", "two"):
        (tmp_path / name / "cbnctrl").mkdir(parents=True)
        (tmp_path / name / "cbnctrl" / "__init__.py").write_text("")
    path = os.pathsep.join(str(tmp_path / name) for name in ("empty", "one", "two"))
    test = f"{Path(__file__).relative_to(ROOT)}::test_the_first_pythonpath_entry_holding_the_package_wins"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout
