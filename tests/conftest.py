import pytest

import storen.hash_families as hash_families


@pytest.fixture
def scans(monkeypatch):
    """Counts the scans of a symbol check: each fast scan calls ``max``."""
    count = [0]

    def counting_max(*args, **kwargs):
        count[0] += 1
        return max(*args, **kwargs)

    monkeypatch.setattr(hash_families, "max", counting_max, raising=False)
    return count
