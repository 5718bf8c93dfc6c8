"""Stochastic-geometry model of a cellular downlink whose receivers power
themselves by harvesting RF energy from the network's own transmissions,
with a matching slot-level Monte Carlo simulator and experiment tooling.

The package is used through its submodules, e.g. `from rfhnet import
analytic`; see core, numerics, analytic, mcsim, config and cli."""

__version__ = "0.1.0"
