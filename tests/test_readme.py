"""README's fenced ``python`` blocks run, in order, in one namespace,
and every ``repro …`` line of its ``bash`` blocks parses.

The guide's examples are the first code a reader copies; executing
them here keeps them in step with the API (a removed keyword or a
renamed function fails tier-1 instead of the reader).  Later blocks
use names earlier ones define, so they share one namespace.  The same
holds for the shell: a deleted command or flag left in the guide
fails to parse.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

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


def _readme_commands():
    """The words after ``repro`` of each command in README's ``bash``
    blocks; a line ending in a backslash continues its command."""
    commands = []
    for block in re.findall(
        r"^```bash\n(.*?)^```", README.read_text(), re.S | re.M
    ):
        continued = False
        for line in block.splitlines():
            line = line.rstrip()
            words = shlex.split(line.rstrip("&\\"), comments=True)
            if continued:
                commands[-1] += words
            elif words[:1] == ["repro"]:
                commands.append(words[1:])
            else:
                continue
            continued = line.endswith("\\")
    return commands


def test_cli_lines_parse():
    commands = _readme_commands()
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README: repro {shlex.join(words)} does not parse")
    assert {words[0] for words in commands} == {
        "query", "explain", "serve", "tables"
    }
