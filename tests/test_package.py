import re
import types
from pathlib import Path

import idmps


def test_all_names_resolve_and_exclude_modules():
    assert idmps.__all__
    for name in idmps.__all__:
        value = getattr(idmps, name)
        assert not isinstance(value, types.ModuleType), name


def test_readme_api_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.count("True") == 2  # the two verify(...).passed lines
