"""README's fenced ``python`` blocks run, in order, in one namespace.

The guide's examples are the first code a reader copies; executing
them here keeps them in step with the API (a removed keyword or a
renamed function fails tier-1 instead of the reader).  Later blocks
use names earlier ones define, so they share one namespace.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(
        r"^```python\n(.*?)^```", README.read_text(), re.S | re.M
    )
    assert len(blocks) == 3
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
