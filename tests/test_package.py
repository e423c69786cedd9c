import fanforge


def test_every_export_resolves_on_the_package():
    # a deleted function must take its export with it
    assert len(set(fanforge.__all__)) == len(fanforge.__all__)
    assert [name for name in fanforge.__all__ if not hasattr(fanforge, name)] == []
