"""The package exports exactly what README documents."""

from pathlib import Path

import hopsort

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_imports_and_is_documented():
    text = README.read_text()
    for name in hopsort.__all__:
        assert getattr(hopsort, name) is not None
        assert f"`{name}`" in text, f"{name} is exported but README does not document it"
