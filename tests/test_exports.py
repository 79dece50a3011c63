"""README names everything `finex` exports, so the two cannot drift apart."""

import re
from pathlib import Path

import finex

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_export():
    named = set(re.findall(r"`(\w+)`", README.read_text()))
    assert sorted(set(finex.__all__) - named) == []

