"""fatoulab: boundary dynamics of multiply connected Fatou components, at desk scale."""

import importlib.util
import sys

__version__ = "0.1.0"

BLASCHKE = "blaschke"  # the product's JSON kind, here so that a kind test executes no module

_SUBMODULES = frozenset(("blaschke", "circle_dynamics", "cli", "covering", "csv_bytes",
                         "errors", "harmonic", "histograms", "map_zoo", "renderer", "rng"))


def __getattr__(name):
    # submodules load on first use (PEP 562), so a process pays only for the
    # modules it needs: ``fatoulab.renderer`` works without an import line
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lazy_import(name: str):
    """The module ``name``: the one already imported, or else one placed in
    sys.modules now and executed on first attribute access (LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
