"""fatoulab: boundary dynamics of multiply connected Fatou components, at desk scale."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(("blaschke", "circle_dynamics", "cli", "covering", "errors",
                         "harmonic", "histograms", "map_zoo", "renderer", "rng"))


def __getattr__(name):
    # submodules load on first use (PEP 562), so a process pays only for the
    # modules it needs: ``fatoulab.renderer`` works without an import line
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
