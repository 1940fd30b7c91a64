"""README's library example must run as written against the shipped system."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT / "tests" / "data")  # the example opens hilbert.pls
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith('(step "( p -> p )" by MP')
