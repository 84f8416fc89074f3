"""The package's public names against the list in README's "Library use"."""

import re
import types
from pathlib import Path

import glyphwave

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_list() -> dict:
    """Each name in the bullet list of README's "Library use", mapped to
    the module its bullet names."""
    section = README.read_text().split("\n## Library use\n")[1].split("\n## ")[0]
    listed, module = {}, None
    for line in section.splitlines():
        if line.startswith("- "):
            module, line = line[2:].split(":", 1)
            module = module.strip("`")
        elif not line.startswith("  "):
            module = None
        for name in re.findall(r"`(\w+)`", line) if module else ():
            listed[name] = module
    return listed


def test_public_names_are_the_readme_list():
    public = {
        name
        for name, value in vars(glyphwave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = library_use_list()
    assert sorted(public) == sorted(listed)
    for name, module in listed.items():
        assert getattr(getattr(glyphwave, module), name) is getattr(glyphwave, name), name
