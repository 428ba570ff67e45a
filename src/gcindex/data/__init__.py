"""Bundled datasets: the Balkans GCI panel, class map and aggregation tree.

balkans-gci.csv holds component-level scores (IS, TTS, ICTS, PII, MEI) and
published global standings (GCI_RANK) for ten regional entities, compiled
from the figures of the WEF Global Competitiveness Report series 2001-2006.
balkans-tree.json computes TI and GCI from those leaves.
wef-default-tree.json is the only definition of the full survey and
hard-data WEF tree; load_tree("wef-default") and default_wef_tree() read it.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

BALKANS_PANEL = "balkans-gci.csv"
BALKANS_CLASSES = "balkans-classes.csv"
BALKANS_TREE = "balkans-tree.json"
WEF_TREE_CONFIG = "wef-default-tree.json"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    path = Path(str(files(__package__) / name))
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path
