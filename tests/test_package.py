"""The package surface: what `from sdid import *` exports."""

import sdid


def test_all_is_unique_and_resolves():
    assert len(sdid.__all__) == len(set(sdid.__all__))
    missing = [name for name in sdid.__all__ if not hasattr(sdid, name)]
    assert missing == []
