import vecmatch


def test_every_public_name_resolves():
    for name in vecmatch.__all__:
        assert getattr(vecmatch, name) is not None, name
    namespace = {}
    exec("from vecmatch import *", namespace)
    assert set(vecmatch.__all__) <= set(namespace)
