import ladderlab


def test_star_import_resolves_all():
    ns = {}
    exec("from ladderlab import *", ns)
    assert [name for name in ladderlab.__all__ if name not in ns] == []
    assert len(set(ladderlab.__all__)) == len(ladderlab.__all__)
