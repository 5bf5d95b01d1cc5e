"""The package's top-level names are the API the README documents."""

import re
from pathlib import Path

import confcause

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_names() -> list[str]:
    """The backquoted names in the bullet list of the README's Python API
    section."""
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.findall(r"^- \w+: (.*(?:\n  .*)*)", section, flags=re.MULTILINE)
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_all_is_the_documented_list():
    documented = _documented_names()
    assert len(documented) == len(set(documented))
    assert sorted(confcause.__all__) == sorted(documented)


def test_every_exported_name_imports():
    namespace: dict = {}
    # a star import raises AttributeError on a listed name that is missing
    exec("from confcause import *", namespace)
    assert set(confcause.__all__) <= set(namespace)
