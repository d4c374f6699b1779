import forestprox


def test_every_public_name_resolves():
    missing = [name for name in forestprox.__all__ if not hasattr(forestprox, name)]
    assert not missing
    assert len(set(forestprox.__all__)) == len(forestprox.__all__)


def test_no_public_name_is_an_alias():
    # each object is exported under one name
    objects = {}
    for name in forestprox.__all__:
        objects.setdefault(id(getattr(forestprox, name)), []).append(name)
    assert [names for names in objects.values() if len(names) > 1] == []
