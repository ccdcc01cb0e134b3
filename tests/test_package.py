import cstirap


def test_public_names_resolve():
    assert len(set(cstirap.__all__)) == len(cstirap.__all__)
    for name in cstirap.__all__:
        assert hasattr(cstirap, name), name
