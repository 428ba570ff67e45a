"""The names gcindex exports: every entry of __all__ resolves through
`from gcindex import *`, and none is listed twice.  The exports are lazy
(PEP 562): each name, read as an attribute, is its defining module's
object, and a submodule resolves after a bare `import gcindex`."""

import importlib
import os
import subprocess
import sys
from types import FunctionType

import pytest

import gcindex


def test_all_names_resolve_once():
    namespace = {}
    exec("from gcindex import *", namespace)  # AttributeError on a stale name
    assert [name for name in gcindex.__all__ if name not in namespace] == []
    assert len(set(gcindex.__all__)) == len(gcindex.__all__)


@pytest.mark.parametrize("name", gcindex.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"gcindex.{gcindex._MODULE_OF[name]}")
    assert getattr(gcindex, name) is getattr(module, name)
    if isinstance(getattr(module, name), (type, FunctionType)):  # defined there, not imported
        assert getattr(module, name).__module__ == module.__name__
    # a second read is the object the first one bound in the package namespace
    assert vars(gcindex)[name] is getattr(module, name)


def test_dir_lists_every_export():
    assert set(gcindex.__all__) <= set(dir(gcindex))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gcindex.no_such_name
    assert not hasattr(gcindex, "no_such_name")
    with pytest.raises(ImportError):
        exec("from gcindex import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    # in a fresh process, where nothing has imported them yet
    child = ("import sys, gcindex\n"
             "assert 'gcindex.stats' not in sys.modules and 'gcindex.svg' not in sys.modules\n"
             "assert gcindex.stats is sys.modules['gcindex.stats']\n"
             "assert gcindex.svg.bar_chart is sys.modules['gcindex.svg'].bar_chart\n")
    src = os.path.dirname(os.path.dirname(gcindex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
