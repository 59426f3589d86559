"""The python examples in README.md run as written, so a renamed or
deleted name cannot stay in a documented example."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
