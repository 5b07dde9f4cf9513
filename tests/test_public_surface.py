"""README matches the package: its export list, its quick start and its
sample table; and the package loads nothing outside the standard library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import hopsort
from hopsort import cli

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


def test_quick_start_prints_what_readme_shows(capsys):
    text = README.read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    shown = re.search(r"^print\(out\) +# (.*)$", block, re.M).group(1)
    exec(block, {})
    assert capsys.readouterr().out.splitlines()[0] == shown


def test_sample_bench_rows_are_what_the_command_prints(capsys):
    text = README.read_text()
    found = re.search(r"`hopsort (bench [^`]*)`\n.*?```\n(.*?)```", text, re.S)
    command, sample = found.groups()
    assert cli.main(command.split()) == 0
    printed = capsys.readouterr().out
    # README aligns the columns with spaces; compare field by field
    assert [line.split() for line in sample.splitlines()] == [
        line.split("\t") for line in printed.splitlines()
    ]


# imports every hopsort module in a fresh interpreter and prints each
# top-level module that this loads and the standard library does not have
THIRD_PARTY_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import hopsort
for info in pkgutil.iter_modules(hopsort.__path__):
    importlib.import_module(f"hopsort.{info.name}")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"hopsort"}))
"""


def test_the_package_loads_only_the_standard_library():
    src = str(Path(hopsort.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", THIRD_PARTY_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n", done.stdout
