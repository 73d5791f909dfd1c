"""Module boundaries of the package, read from its source.

fields draws every field: only it touches the innovation layout, so a
change to how innovations are drawn or laid out stays inside one module.
sums only reduces what its callers sampled, so it draws nothing.
"""

import ast
from pathlib import Path

import pytest

import fieldlab

SRC = Path(fieldlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

INNOVATION_LAYOUT = {"innovations", "_dilation", "_field_from_innovations"}
SAMPLERS = {"sample_block", "sample_block_batch", "line_segments", "stream", "streams"}


def used_names(module: str) -> set[str]:
    """Names a module imports from another, or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_modules_found():
    assert {"fields", "sums", "coupling", "verify"} <= set(MODULES)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "fields"])
def test_only_fields_touches_the_innovation_layout(module):
    assert not used_names(module) & INNOVATION_LAYOUT


def test_sums_draws_nothing():
    assert not used_names("sums") & SAMPLERS
