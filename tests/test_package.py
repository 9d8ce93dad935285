import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cswlp

_MODULES = sorted(info.name for info in pkgutil.iter_modules(cswlp.__path__))


@pytest.mark.parametrize("name", ["cswlp"] + [f"cswlp.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_readme_python_blocks_run():
    # the documented API cannot drift from the package unseen
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
