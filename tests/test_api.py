import skabelund


def test_every_exported_name_resolves():
    assert len(set(skabelund.__all__)) == len(skabelund.__all__)
    missing = [name for name in skabelund.__all__ if not hasattr(skabelund, name)]
    assert missing == []
    namespace = {}
    exec("from skabelund import *", namespace)
    assert set(skabelund.__all__) <= namespace.keys()
