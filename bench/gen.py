"""Seeded input generator for the benchmark workloads.

Writes a panel CSV (year,country,indicator,value) and a class CSV
(country,class).  Survey leaves carry values on the 1-7 scale; hard leaves
carry raw per-capita values (per 1,000 people) that the engine normalizes against the
observed range.  20% of countries are core innovators.  The same
(workload, seed) always gives the same bytes: only ``Random.random()`` is
drawn, whose stream is fixed across Python versions.

Usage: python3 bench/gen.py --workload wide-year --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import oracle

#: countries, years, share of leaf values missing
SPECS = {
    "wide-year": dict(countries=150, years=(2006,), missing=0.0),
    "panel-history": dict(countries=40, years=tuple(range(2001, 2011)), missing=0.03),
    "whatif-sweep": dict(countries=400, years=(2006,), missing=0.0),
}
CORE_SHARE = 0.2
#: per-1,000-people scale of each hard leaf
HARD_SCALE = {
    "cellular_telephones": 1100.0,
    "internet_users": 800.0,
    "internet_hosts": 400.0,
    "telephone_lines": 650.0,
    "personal_computers": 700.0,
}


@dataclass
class Inputs:
    """Paths of the written files plus the same data in memory for the oracle."""

    panel: Path
    classes: Path
    years: Tuple[int, ...]
    countries: Tuple[str, ...]
    class_of: Dict[str, str]
    values: Dict[int, Dict[Tuple[str, str], float]] = field(default_factory=dict)
    rows: int = 0


def pick(rng: random.Random, items):
    """One element of a sequence, drawn with rng.random()."""
    return items[int(rng.random() * len(items))]


def shuffle(rng: random.Random, items: list) -> list:
    """Fisher-Yates in place, drawn with rng.random()."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def generate(workload: str, seed: int, out_dir: Path, countries: Optional[int] = None) -> Inputs:
    """Write the workload's input files under out_dir and return them."""
    spec = SPECS[workload]
    n = countries or spec["countries"]
    rng = random.Random(f"gcindex-bench:{workload}:{seed}:{n}")
    names = [f"C{i:04d}" for i in range(1, n + 1)]
    core = set(shuffle(rng, list(names))[: round(CORE_SHARE * n)])
    class_of = {c: "core" if c in core else "noncore" for c in names}

    years = spec["years"]
    values: Dict[int, Dict[Tuple[str, str], float]] = {y: {} for y in years}
    lines = ["year,country,indicator,value"]
    for c in names:
        level = 0.05 + 0.9 * rng.random()
        slope = 0.04 * rng.random() - 0.02
        offsets = {leaf: 0.3 * rng.random() - 0.15 for leaf in oracle.LEAVES}
        for t, year in enumerate(years):
            for leaf in oracle.LEAVES:
                x = level + slope * t + offsets[leaf] + 0.1 * rng.random() - 0.05
                x = min(1.0, max(0.0, x))
                if rng.random() < spec["missing"]:
                    continue
                if leaf in HARD_SCALE:
                    text = f"{HARD_SCALE[leaf] * (0.01 + x ** 1.5):.3f}"
                else:
                    text = f"{1.0 + 6.0 * x:.4f}"
                values[year][(c, leaf)] = float(text)
                lines.append(f"{year},{c},{leaf},{text}")

    out_dir.mkdir(parents=True, exist_ok=True)
    panel = out_dir / f"{workload}-panel.csv"
    panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
    classes = out_dir / f"{workload}-classes.csv"
    classes.write_text(
        "country,class\n" + "".join(f"{c},{class_of[c]}\n" for c in names), encoding="utf-8"
    )
    return Inputs(panel, classes, tuple(years), tuple(names), class_of, values,
                  rows=len(lines) - 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    print(inputs.panel)
    print(inputs.classes)


if __name__ == "__main__":
    main()
