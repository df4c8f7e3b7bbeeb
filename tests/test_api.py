"""The public package surface."""

import symsig


def test_every_exported_name_resolves_once():
    assert len(symsig.__all__) == len(set(symsig.__all__))
    for name in symsig.__all__:
        assert hasattr(symsig, name), name
