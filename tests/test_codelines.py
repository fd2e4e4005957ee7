"""``tools/codelines.py``: which lines of a module count as code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


class Box:
    """Class docstring."""

    # A comment line does not.
    size = (1,
            2)

    def area(self):
        """Function docstring."""
        text = """a string that is
        no docstring"""
        return math.prod(self.size), text
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import; class; size over two lines; def; text over two lines; return.
    assert codelines.code_lines(SOURCE) == 1 + 1 + 2 + 1 + 2 + 1


def test_count_dir_counts_each_module(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert codelines.count_dir(tmp_path) == {"a.py": 8, "b.py": 1}
