"""The counting rule of tools/loc.py, which prints the package's line counts."""

import runpy
import sys
from pathlib import Path
from unittest import mock

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SNIPPET = '''"""A module docstring,

# a hash inside a docstring is docstring
with a blank line inside it."""

import os  # a trailing comment leaves the line code

# a comment line
    # an indented comment line


def f():
    """A one-line docstring."""
    x = "an assigned string is code"
    "a string-expression statement"
    return os.sep + x
'''


def test_loc_counts_docstring_comment_code_and_blank_lines():
    with mock.patch.dict(sys.modules, {"numpy": None}):  # loading the tool must not import numpy
        loc = runpy.run_path(str(LOC))
    # docstring: lines 1-4, 13 and 15; comment: 8 and 9; blank: 5, 7, 10 and 11; code: 6, 12, 14, 16.
    assert loc["counts"](SNIPPET) == [16, 4, 6, 2, 4]
    assert loc["counts"]("") == [0, 0, 0, 0, 0]
