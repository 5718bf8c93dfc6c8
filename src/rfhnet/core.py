"""Shared domain types for the harvesting-downlink model.

Everything downstream (closed-form layer, simulator, CLI) passes the
NetworkParams and NumericPolicy objects around.  SimConfig holds the
simulator's knobs; it lives here rather than in mcsim so that reading a
config does not import the simulator.  Internally all quantities are strict
SI: densities in m^-2, energies in joules, powers in watts, distances in
meters.  Config files speak km^-2 for densities; the conversion helpers
below are the single crossing point between the two unit systems.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

M2_PER_KM2 = 1.0e6


def per_km2_to_per_m2(density: float) -> float:
    """Convert a spatial density from km^-2 to m^-2."""
    return density / M2_PER_KM2


def per_m2_to_per_km2(density: float) -> float:
    """Convert a spatial density from m^-2 to km^-2."""
    return density * M2_PER_KM2


class ErlangIndexMode(enum.Enum):
    """Upper index convention for the truncated Poisson sum in the
    energy-readiness probability.

    The accumulated fading sum after k scheduling rounds in a cell with n
    other users spans k*(n+1)-1 harvest slots.  SLOT_COUNT uses that slot
    count as the summation index, keeping it equal to the Erlang shape of
    the accumulated sum.  ROUND_COUNT uses the round index k instead.
    """

    SLOT_COUNT = "slot_count"
    ROUND_COUNT = "round_count"


@dataclass(frozen=True)
class NetworkParams:
    """Deployment and radio parameters, strict SI units.

    lambda_b      base-station density [m^-2]
    lambda_u      user density [m^-2]
    p_s           per-station transmit power [W]
    alpha         path-loss exponent, must exceed 2
    a_eff         RF-to-DC conversion efficiency, in (0, 1]
    e_th          energy required to receive one downlink slot [J]; a slot
                  lasts 1 s, so it harvests a_eff times the received power
    sigma2        noise power [W]
    """

    lambda_b: float
    lambda_u: float
    p_s: float
    alpha: float
    a_eff: float
    e_th: float
    sigma2: float = 0.0


def validate(params: NetworkParams) -> NetworkParams:
    """Check every NetworkParams invariant; return params unchanged.

    Raises ValueError naming the first violated field.  Checks are ordered,
    so error messages are deterministic.  Idempotent by construction.
    """
    checks = (
        (params.lambda_b > 0 and math.isfinite(params.lambda_b),
         "lambda_b must be positive and finite"),
        (params.lambda_u >= 0 and math.isfinite(params.lambda_u),
         "lambda_u must be non-negative and finite"),
        (params.p_s > 0 and math.isfinite(params.p_s),
         "p_s must be positive and finite"),
        (params.alpha > 2 and math.isfinite(params.alpha),
         "alpha must exceed 2"),
        (0 < params.a_eff <= 1, "a_eff must lie in (0, 1]"),
        (params.e_th > 0 and math.isfinite(params.e_th),
         "e_th must be positive and finite"),
        (params.sigma2 >= 0 and math.isfinite(params.sigma2),
         "sigma2 must be non-negative and finite"),
    )
    for ok, message in checks:
        if not ok:
            raise ValueError(message)
    return params


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances and truncation caps shared by the closed-form layer.

    quad_rel_tol     relative tolerance for adaptive quadrature
    series_tail_eps  mass below which infinite series are truncated
    n_max_cap        hard cap on the user-count series index
    k_max_cap        hard cap on the charging-rounds series index
    erlang_index_mode  see ErlangIndexMode
    eps_sat          saturation margin used by the sustainable-ratio search
    plateau_multiple lambda_u/lambda_b ratio used to probe the throughput
                     plateau in the sustainable-ratio search
    """

    quad_rel_tol: float = 1e-8
    series_tail_eps: float = 1e-9
    n_max_cap: int = 2000
    k_max_cap: int = 2000
    erlang_index_mode: ErlangIndexMode = ErlangIndexMode.SLOT_COUNT
    eps_sat: float = 0.01
    plateau_multiple: float = 50.0

    def __post_init__(self):
        if not (0 < self.quad_rel_tol < 1):
            raise ValueError("quad_rel_tol must lie in (0, 1)")
        if not (0 < self.series_tail_eps < 1):
            raise ValueError("series_tail_eps must lie in (0, 1)")
        if self.n_max_cap < 1:
            raise ValueError("n_max_cap must be at least 1")
        if self.k_max_cap < 1:
            raise ValueError("k_max_cap must be at least 1")
        if not isinstance(self.erlang_index_mode, ErlangIndexMode):
            raise ValueError("erlang_index_mode must be an ErlangIndexMode")
        if not (0 < self.eps_sat < 1):
            raise ValueError("eps_sat must lie in (0, 1)")
        if not (self.plateau_multiple > 0
                and math.isfinite(self.plateau_multiple)):
            raise ValueError("plateau_multiple must be positive and finite")


EDGE_TORUS = "torus"
EDGE_GUARD = "guard"


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs.

    region_side      deployment square side [m]
    n_slots          scheduled slots per replication
    n_replications   independent field draws
    seed             non-negative master seed; replication streams are
                     spawned from it
    edge_mode        "torus" wraps distances; "guard" pads the sampling
                     window by guard_width on each side and restricts
                     statistics to a centered sub-square
    guard_width      pad width for guard mode [m]
    measure_ring     side fraction of the central statistics square (guard
                     mode only; torus statistics use every user)
    force_all_bs_transmit  when True every station transmits every slot,
                     matching the interference field the closed forms
                     assume; when False empty cells stay silent
    warmup_rounds    initial scheduling rounds of each cell excluded from
                     statistics
    """

    region_side: float = 1000.0
    n_slots: int = 600
    n_replications: int = 8
    seed: int = 0
    edge_mode: str = EDGE_TORUS
    guard_width: float = 150.0
    measure_ring: float = 0.7
    force_all_bs_transmit: bool = True
    warmup_rounds: int = 5

    def __post_init__(self):
        if not (self.region_side > 0 and math.isfinite(self.region_side)):
            raise ValueError("region_side must be positive and finite")
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.n_replications < 1:
            raise ValueError("n_replications must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.edge_mode not in (EDGE_TORUS, EDGE_GUARD):
            raise ValueError("edge_mode must be 'torus' or 'guard'")
        if not (0 <= self.guard_width < self.region_side / 2):
            raise ValueError("guard_width must lie in [0, region_side/2)")
        if not (0 < self.measure_ring <= 1):
            raise ValueError("measure_ring must lie in (0, 1]")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds must be non-negative")
        # a cell's warm-up spans at least warmup_rounds slots, so with no
        # more slots than that no scheduled slot is ever counted
        if self.n_slots <= self.warmup_rounds:
            raise ValueError("n_slots must exceed warmup_rounds")
