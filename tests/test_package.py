import eelab


def test_every_exported_name_resolves():
    namespace = {}
    exec("from eelab import *", namespace)  # AttributeError on a stale name
    assert len(set(eelab.__all__)) == len(eelab.__all__)
    assert all(name in namespace for name in eelab.__all__)
