import forestprox


def test_every_public_name_resolves():
    missing = [name for name in forestprox.__all__ if not hasattr(forestprox, name)]
    assert not missing
    assert len(set(forestprox.__all__)) == len(forestprox.__all__)
