"""The package's export list: ``from bornlab import *`` binds exactly
``bornlab.__all__``, and every listed name resolves."""

import bornlab


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from bornlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(bornlab.__all__)
    assert len(set(bornlab.__all__)) == len(bornlab.__all__)
    for name in bornlab.__all__:
        assert namespace[name] is getattr(bornlab, name)
