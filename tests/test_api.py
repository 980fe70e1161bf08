import netchrono


def test_every_export_resolves():
    assert [name for name in netchrono.__all__ if not hasattr(netchrono, name)] == []
    assert len(set(netchrono.__all__)) == len(netchrono.__all__)
