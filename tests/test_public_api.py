"""The names gcindex exports: every entry of __all__ resolves through
`from gcindex import *`, and none is listed twice."""

import gcindex


def test_all_names_resolve_once():
    namespace = {}
    exec("from gcindex import *", namespace)  # AttributeError on a stale name
    assert [name for name in gcindex.__all__ if name not in namespace] == []
    assert len(set(gcindex.__all__)) == len(gcindex.__all__)
