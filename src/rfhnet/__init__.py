"""Stochastic-geometry model of a cellular downlink whose receivers power
themselves by harvesting RF energy from the network's own transmissions,
with a matching slot-level Monte Carlo simulator and experiment tooling.

The package is used through its submodules, e.g. `from rfhnet import
analytic`; see core, numerics, analytic, fit, mcsim, config and cli.  A
submodule also loads on first attribute access, so `rfhnet.mcsim` works
without importing it first."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("analytic", "cli", "config", "core", "fit", "mcsim",
               "numerics")


def __getattr__(name):
    # PEP 562: called only for names the package does not hold yet
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
