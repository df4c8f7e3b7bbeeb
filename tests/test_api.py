"""The public package surface, and the rule that no float enters it."""

import ast
from pathlib import Path

import pytest

import symsig

# Only these modules may touch floating point: they render decimal shadows.
DECIMAL_SHADOW_MODULES = {"cyclotomic.py", "cli.py"}


def test_every_exported_name_resolves_once():
    assert len(symsig.__all__) == len(set(symsig.__all__))
    for name in symsig.__all__:
        assert hasattr(symsig, name), name


def float_uses(source: str) -> list[str]:
    """Each float(...) call, float literal, ``import cmath`` or ``embed_complex``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...)")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            if "cmath" in names:
                found.append(f"line {node.lineno}: import cmath")
        elif isinstance(node, ast.Attribute) and node.attr == "embed_complex":
            found.append(f"line {node.lineno}: .embed_complex")
    return found


@pytest.mark.parametrize(
    "source", ["x = float(y)", "x = 0.5", "x = 2j", "import cmath", "from cmath import exp",
               "z = v.embed_complex()"]
)
def test_float_guard_sees_each_form(source):
    assert float_uses(source)


def test_no_float_outside_the_decimal_shadow_modules():
    modules = sorted(Path(symsig.__file__).parent.glob("*.py"))
    assert {p.name for p in modules} >= DECIMAL_SHADOW_MODULES | {"signature.py"}
    for path in modules:
        if path.name not in DECIMAL_SHADOW_MODULES:
            assert float_uses(path.read_text()) == [], path.name
