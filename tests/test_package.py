import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cswlp
from cswlp import cli

_NAMES = ["cswlp"] + sorted(f"cswlp.{info.name}" for info in pkgutil.iter_modules(cswlp.__path__))


@pytest.mark.parametrize("name", _NAMES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", _NAMES)
def test_every_import_is_used(name):
    # no linter is a dependency; an import that only the benchmark tracer
    # binds is marked "# noqa: F401"
    module = importlib.import_module(name)
    source = Path(module.__file__).read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def test_readme_python_blocks_run():
    # the documented API cannot drift from the package unseen
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cswlp_commands_parse():
    # a documented flag cannot outlive its code
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cswlp ")]
    assert len(commands) >= 5
    for command in commands:
        try:
            cli._build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
