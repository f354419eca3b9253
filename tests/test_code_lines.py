"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment does not hide the code before it


# a comment-only line
def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class docstring."""

    text = """a string that is no docstring,

with a blank line"""
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path, capsys):
    # import, def, the two lines of the return, class, and the string's two non-blank lines
    assert code_lines.code_lines(SOURCE) == 7
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "1", "8"]
    assert out[-1].endswith("total")
