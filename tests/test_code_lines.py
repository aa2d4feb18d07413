"""``tools/code_lines.py`` counts code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

# A comment line.
X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """a string
that is not a docstring"""
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # X = 1, class A:, def f, and the two lines of the returned string.
    assert code_lines.code_lines(path) == 5


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\n\nz = 3\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 2\nb 1\ntotal 3\n"
