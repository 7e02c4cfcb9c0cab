import combofit


def test_every_export_resolves():
    # a stale name in __all__ would otherwise fail only under `from combofit import *`
    assert [name for name in combofit.__all__ if not hasattr(combofit, name)] == []
