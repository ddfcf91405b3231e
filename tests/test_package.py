import types

import idmps


def test_all_names_resolve_and_exclude_modules():
    assert idmps.__all__
    for name in idmps.__all__:
        value = getattr(idmps, name)
        assert not isinstance(value, types.ModuleType), name
