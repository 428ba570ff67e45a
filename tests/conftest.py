from __future__ import annotations

from fractions import Fraction

import pytest

from gcindex.data import (
    BALKANS_CLASSES,
    BALKANS_PANEL,
    BALKANS_TREE,
    fixture_path,
)
from gcindex.ingest import default_wef_tree, load_classes, load_panel, load_tree
from gcindex.model import (
    IndexTree,
    InnovatorClass,
    Node,
    validate_tree,
)


@pytest.fixture(scope="session")
def wef_tree():
    return default_wef_tree()


@pytest.fixture(scope="session")
def balkans():
    """(panel, tree) for the bundled regional dataset."""
    classes = load_classes(fixture_path(BALKANS_CLASSES))
    panel = load_panel(fixture_path(BALKANS_PANEL), classes)
    tree = load_tree(fixture_path(BALKANS_TREE))
    return panel, tree


@pytest.fixture(scope="session")
def component_tree():
    """GCI over a TI leaf plus expanded institutions/macro branches."""
    half, quarter, third = Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)
    nodes = {
        "GCI": Node(
            "GCI",
            edges_by_class={
                InnovatorClass.CORE: (("TI", half), ("PII", quarter), ("MEI", quarter)),
                InnovatorClass.NONCORE: (("TI", third), ("PII", third), ("MEI", third)),
            },
        ),
        "PII": Node("PII", edges=(("CLS", half), ("CS", half))),
        "MEI": Node("MEI", edges=(("MSS", half), ("CCR", quarter), ("GW", quarter))),
        "TI": Node("TI"),
        "CLS": Node("CLS"),
        "CS": Node("CS"),
        "MSS": Node("MSS"),
        "CCR": Node("CCR"),
        "GW": Node("GW"),
    }
    return validate_tree(IndexTree(nodes=nodes, root="GCI"))


@pytest.fixture(scope="session")
def technology_tree():
    """Technology branch with the ICT split down to the survey/hard groups."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    nodes = {
        "TI": Node(
            "TI",
            edges_by_class={
                InnovatorClass.CORE: (("IS", half), ("ICTS", half)),
                InnovatorClass.NONCORE: (
                    ("IS", Fraction(1, 8)),
                    ("TTS", Fraction(3, 8)),
                    ("ICTS", half),
                ),
            },
        ),
        "ICTS": Node("ICTS", edges=(("ICTsd", third), ("ICThd", Fraction(2, 3)))),
        "IS": Node("IS"),
        "TTS": Node("TTS"),
        "ICTsd": Node("ICTsd"),
        "ICThd": Node("ICThd"),
    }
    return validate_tree(IndexTree(nodes=nodes, root="TI"))
