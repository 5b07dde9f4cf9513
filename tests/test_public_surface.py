"""The package exports exactly what README documents."""

import re
from pathlib import Path

import hopsort

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_imports_and_is_documented():
    text = README.read_text()
    for name in hopsort.__all__:
        assert getattr(hopsort, name) is not None
        assert f"`{name}`" in text, f"{name} is exported but README does not document it"


def test_every_documented_export_is_exported():
    text = README.read_text()
    intro = "The package exports exactly these names"
    assert intro in text
    # the bullet list that follows the intro paragraph, up to the next blank line
    bullets = text.split(intro, 1)[1].split("\n\n")[1]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", bullets))
    assert names, "README's export list names no identifier"
    missing = names - set(hopsort.__all__)
    assert not missing, f"README lists {sorted(missing)} as exported but __all__ lacks them"
