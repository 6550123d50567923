"""Numerics lab for symmetrized operator-mean inequalities: with/without
replacement means, partition-indexed norm bounds, a free-probability
counterexample surrogate, and the incremental gradient method bound.

The layers are imported on first use (PEP 562), so ``import sagm`` loads
none of them, and ``sagm.igm`` or ``from sagm import igm`` loads ``igm``
and what it imports.  A CLI process thus compiles and runs only the layers
of its subcommand (see ``sagm.cli``)."""

import importlib

__version__ = "0.1.0"

_LAYERS = ("freeprobe", "igm", "linalg", "partitions", "symsum")
__all__ = [*_LAYERS, "__version__"]


def __getattr__(name: str):
    if name in _LAYERS:
        # import_module binds the layer on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
