import gainchart


def test_public_names_resolve():
    assert len(set(gainchart.__all__)) == len(gainchart.__all__)
    for name in gainchart.__all__:
        assert getattr(gainchart, name) is not None, name


def test_star_import():
    ns = {}
    exec("from gainchart import *", ns)
    assert set(gainchart.__all__) <= set(ns)
