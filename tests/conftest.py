import pytest

from antimorph import morphisms
from antimorph.maps import VARIANCES
from antimorph.morphisms import DEFAULT_BOUND


@pytest.fixture
def install_enumerator(monkeypatch):
    """install(module, mutant) puts a mutant `enumerate_morphisms(a, b,
    variance, bound)` into `module`, and a `hom_and_an` and a `hom_an_tables`
    built on it, so the module's callers of any of the three see the
    mutant's sets. `morphisms` keeps its own `hom_an_tables`: its real
    enumerators read that name, so a mutant built on one of them would
    otherwise call itself."""
    def install(module, mutant):
        def both(a, b, bound=DEFAULT_BOUND):
            return tuple(mutant(a, b, v, bound) for v in VARIANCES)

        def tables(a, b, bound=DEFAULT_BOUND):
            return tuple(tuple(m.images for m in ms) for ms in both(a, b, bound))

        monkeypatch.setattr(module, "enumerate_morphisms", mutant)
        monkeypatch.setattr(module, "hom_and_an", both)
        if module is not morphisms:
            monkeypatch.setattr(module, "hom_an_tables", tables)
    return install
