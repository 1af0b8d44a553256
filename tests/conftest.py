import pytest

from antimorph.maps import VARIANCES, Morphism
from antimorph.morphisms import DEFAULT_BOUND


@pytest.fixture
def install_enumerator(monkeypatch):
    """install(module, mutant) puts a mutant `hom_an_tables(a, b, bound)` of
    groups into `module`, and an `enumerate_morphisms` built on it, so the
    module's callers of either see the mutant's sets. A mutant built on
    `morphisms.hom_an_tables` as it was before the install serves
    `morphisms` too, whose real `enumerate_morphisms` reads that name."""
    def install(module, mutant):
        def enumerate_(a, b, variance, bound=DEFAULT_BOUND):
            tables = mutant(a, b, bound)[VARIANCES.index(variance)]
            return tuple(Morphism(a, b, t, variance) for t in tables)

        monkeypatch.setattr(module, "hom_an_tables", mutant)
        monkeypatch.setattr(module, "enumerate_morphisms", enumerate_)
    return install
