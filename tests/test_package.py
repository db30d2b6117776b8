"""The package's public names are exactly its submodules' public names."""

import powsumseq
from powsumseq import asymptotics, exact_core, poly_certificates, property_checks, sweep_harness

SUBMODULES = (exact_core, property_checks, poly_certificates, asymptotics, sweep_harness)


def test_public_names_are_the_submodules_names():
    names = powsumseq.__all__
    assert len(names) == len(set(names))
    expected = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(names) == expected
    for name in names:
        assert hasattr(powsumseq, name), name
