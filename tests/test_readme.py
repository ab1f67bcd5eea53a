"""The README's Python example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_example_prints_its_three_lines(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[:2] == ["('y1',)", "0.7"]
    assert lines[2].startswith("InterventionPolicy(table=Cpd(owner='y1', parents=('y2',)")
