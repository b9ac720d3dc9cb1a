"""What other tools read from this repository still reads.

CI parses the workflow files; the e2e benchmark wraps the layer
boundaries its ``trace.py`` names by dotted path, and reports a target
that stopped resolving as ``missing`` with a null metric instead of
failing.  Both break silently, so they are pinned here.
"""

from __future__ import annotations

from importlib import import_module
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_files_are_valid_yaml():
    yaml = pytest.importorskip("yaml")
    workflows = sorted((ROOT / ".github" / "workflows").iterdir())
    assert workflows
    for path in workflows:
        assert yaml.safe_load(path.read_text())["jobs"], path.name


def _trace_targets():
    path = ROOT / "benchmarks" / "e2e" / "trace.py"
    spec = spec_from_file_location("e2e_trace", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span", sorted(_trace_targets()))
def test_trace_target_resolves(span):
    module_name, class_name, attribute = _trace_targets()[span]
    owner = import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attribute))
