"""The documented surface: the README's library example and the
package's exported names."""
import pathlib
import re

import sigma_forge

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_exported_name_resolves():
    names = sigma_forge.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(sigma_forge, name)]
    assert not missing
