"""``tools/code_lines.py``, the code-line count the change log and the ROADMAP quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function docstring,

    over three lines."""
    text = """a string
that is code"""
    "a second string statement is code"
    return (x +
            math.pi)
'''


def test_counts_token_lines_outside_docstrings_and_comments():
    # counted: import, class, size, def, both lines of text, the second string,
    # both lines of the return
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_module_and_the_total_and_fails_only_on_a_file_that_does_not_parse(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["10", "total"]
    (tmp_path / "c.py").write_text("def f(:\n")
    assert code_lines.main([str(tmp_path)]) == 1
    assert "c.py: does not parse" in capsys.readouterr().err
