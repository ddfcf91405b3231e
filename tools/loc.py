"""Line counts of the package: total, code, docstring, comment and blank lines per file of
src/idmps and in sum. Every line of a string-expression statement is docstring, blank lines
inside it too; a line whose first non-space character is "#" is a comment; the rest of the
blank lines are blank and every other line is code. Run: python tools/loc.py"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "idmps"


def counts(text: str) -> list[int]:
    """[total, code, docstring, comment, blank] lines of one file's ``text``."""
    lines = text.splitlines()
    doc = {n for node in ast.walk(ast.parse(text))
           if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
           for n in range(node.lineno, node.end_lineno + 1)}
    comment = {n for n, line in enumerate(lines, 1) if n not in doc and line.lstrip().startswith("#")}
    blank = {n for n, line in enumerate(lines, 1) if n not in doc and not line.strip()}
    return [len(lines), len(lines) - len(doc) - len(comment) - len(blank), len(doc), len(comment), len(blank)]


if __name__ == "__main__":
    rows = {path.name: counts(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("*.py"))}
    rows["sum"] = [sum(column) for column in zip(*rows.values())]
    for name, row in {"file": ["total", "code", "docstring", "comment", "blank"], **rows}.items():
        print(f"{name:<16}" + "".join(f"{c:>10}" for c in row))
