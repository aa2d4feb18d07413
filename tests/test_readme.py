"""README's Python examples run, and the values their comments state hold.

Each ```python block runs statement by statement with every name of
``rvckit.__all__`` in scope.  A statement that is a bare expression with a
trailing comment is checked when the comment, or its text before the first
": ", parses as a Python literal: the expression must equal that literal.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import rvckit

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def stated_value(comment: str):
    """The literal a trailing comment states, or None when it states none."""
    text = comment.lstrip("#").strip()
    for candidate in (text, text.split(": ", 1)[0]):
        try:
            return (ast.literal_eval(candidate),)
        except (ValueError, SyntaxError):
            continue
    return None


def run_block(source: str) -> int:
    """Run one block; returns how many stated values it checked."""
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    scope = {name: getattr(rvckit, name) for name in rvckit.__all__}
    checked = 0
    for stmt in ast.parse(source).body:
        stated = stated_value(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and stated is not None:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            assert got == stated[0], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), scope)
    return checked


def test_readme_has_the_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize(
    "block, checks", [(0, 6), (1, 2)], ids=["quick-start", "lift-validity-example"]
)
def test_readme_block_values_hold(block, checks):
    assert run_block(BLOCKS[block]) == checks
