"""The README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    """Every ```python block of README.md runs, in order, in one
    namespace (a later block uses the names an earlier one binds)."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
