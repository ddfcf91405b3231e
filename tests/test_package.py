import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import idmps

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "idmps").glob("*.py"))


def test_all_names_resolve_and_exclude_modules():
    assert idmps.__all__
    for name in idmps.__all__:
        value = getattr(idmps, name)
        assert not isinstance(value, types.ModuleType), name


@pytest.mark.parametrize("argv", [["-c", "import idmps"], ["-m", "idmps.cli", "--help"]])
def test_import_and_help_leave_orjson_unimported(argv):
    """Only the file codec needs orjson, so the package's import and the CLI's
    help (a fresh process's start-up) never load it: -X importtime lists
    every module a fresh interpreter imports."""
    package_root = str(Path(idmps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "idmps.io" in imported
    assert not {name for name in imported if name.split(".")[0] == "orjson"}


def test_readme_api_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.count("True") == 2  # the two verify(...).passed lines


def test_one_function_holds_the_rank_cut():
    """The rank cut's threshold is written in one function of the package, so that a
    second rank rule, deciding cuts before the one cut rule sees them, cannot come back."""
    holders, total = [], 0
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        total += text.count("rank_tol *")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and (found := ast.get_source_segment(text, node).count("rank_tol *")):
                holders.append((path.name, node.name, found))
    assert holders == [("tensor.py", "_rank", total)]  # and no occurrence outside it


def test_one_function_multiplies_out_a_chain():
    """to_dense, the coefficient tables and wavefunction_mps hold no loop of their
    own: each leaves the chain product to ``mps._products``, so that a second
    product loop, with its own overflow rule, cannot come back."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    wanted = {("mps.py", "to_dense"), ("mps.py", "_envs"), ("oscillator.py", "wavefunction_mps")}
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in wanted:
                found.add((path.name, node.name))
                assert not any(isinstance(sub, loops) for sub in ast.walk(node)), node.name
                assert "_products" in names_read(node), node.name
    assert found == wanted


def test_one_routine_builds_every_decomposed_state():
    """In mps.py only ``_gauge`` constructs a MatrixProductState, and both ``decompose``
    and ``truncate`` leave their state to it, so that a second state-building tail, with
    its own weight division and range check, cannot come back."""
    tree = ast.parse(next(p for p in SOURCES if p.name == "mps.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def builds(node):
        return sum(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "MatrixProductState"
            for sub in ast.walk(node)
        )

    assert "_gauge" in functions and builds(tree) == builds(functions["_gauge"]) >= 1
    assert all("_gauge" in names_read(functions[name]) for name in ("decompose", "truncate"))


def test_only_the_cut_rule_and_the_gauge_reject_a_zero_state():
    """In mps.py every ``raise ZeroState(...)`` sits in ``_cut``, which rejects a zero state
    at every cut, or in ``_gauge``, which rejects a one-site chain that makes no cut, so that
    a second scan for the zero state cannot come back."""
    tree = ast.parse(next(p for p in SOURCES if p.name == "mps.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def raises(node):
        return sum(
            isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call)
            and getattr(sub.exc.func, "id", None) == "ZeroState"
            for sub in ast.walk(node)
        )

    assert raises(functions["_cut"]) == raises(functions["_gauge"]) == 1
    assert raises(tree) == 2


def names_read(tree):
    """Every bare name ``tree`` reads (docstring text is not a read)."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def test_every_import_is_used():
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{path.name} imports {bound} and never uses it"


def test_every_private_module_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set().union(*(
        names_read(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for tree in trees.values()
    ))
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__"):
                    assert private in referenced, f"{name} defines {private} and nothing uses it"
