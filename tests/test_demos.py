"""The tracked demo artifacts are the byte oracle of the determinism contract:
rerunning demo 06's CLI jobs must reproduce every file in demos/output/."""

import importlib.util
from pathlib import Path

import pytest

from gcindex.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _report_files_demo():
    spec = importlib.util.spec_from_file_location("report_files", DEMOS / "06_report_files.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_files_regenerate_byte_for_byte(tmp_path, capsys):
    demo = _report_files_demo()
    jobs = demo.jobs(tmp_path)
    for argv, description in jobs:
        assert main(argv[:1] + demo.data + argv[1:]) == 0, description
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (DEMOS / "output").iterdir())
    for name in written:
        if (tmp_path / name).read_bytes() != (DEMOS / "output" / name).read_bytes():
            pytest.fail(f"{name} differs from demos/output/{name}")
