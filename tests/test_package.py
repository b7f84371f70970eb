"""The package's public names."""

import twoatom


def test_every_public_name_resolves_once():
    assert len(set(twoatom.__all__)) == len(twoatom.__all__)
    missing = [name for name in twoatom.__all__ if not hasattr(twoatom, name)]
    assert missing == []
