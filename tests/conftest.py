import pytest

from osscheck import analysis


@pytest.fixture(autouse=True)
def fresh_spectral_store():
    """Every test starts with an empty spectral store, so that no test reads
    the reduced Jacobi spectra that an earlier one computed."""
    analysis._store = None
