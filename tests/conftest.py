import pytest

from antimorph.maps import VARIANCES
from antimorph.morphisms import DEFAULT_BOUND


@pytest.fixture
def install_enumerator(monkeypatch):
    """install(module, mutant) puts a mutant `enumerate_morphisms(a, b,
    variance, bound)` into `module`, and a `hom_and_an` built on it, so the
    module's callers of either enumerator see the mutant's sets."""
    def install(module, mutant):
        def both(a, b, bound=DEFAULT_BOUND):
            return tuple(mutant(a, b, v, bound) for v in VARIANCES)

        monkeypatch.setattr(module, "enumerate_morphisms", mutant)
        monkeypatch.setattr(module, "hom_and_an", both)
    return install
