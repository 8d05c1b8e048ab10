"""Analog codebook generation.

Two beam families, both phase-only with uniform 1/sqrt(N) amplitude:

* traditional near-field focusing -- per-element phase conjugation of the
  spherical propagation phase toward a target point, the matched filter for
  an unobstructed link;
* cubic-phase ("curved") beams -- a lens term, a linear steering term, and a
  cubic term that makes the main lobe follow a parabolic arc instead of a
  straight ray, which is what lets energy hook around a knife edge.

All element positions are evaluated in meters; the cubic coefficient
`bending` is dimensionless and `focal` is a length. airy_weight_rows builds
many cubic beams from parameter columns at once (the search's chunks, the
angle sweep); check_airy_columns holds the parameter rules that AiryParams
and the search's up-front box check share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .geometry import (
    ArrayGeometry,
    Carrier,
    ScenarioConfig,
    UserPosition,
    classify_user,
    geometric_angle,
)

__all__ = [
    "AiryParams",
    "check_airy_columns",
    "BeamWeights",
    "Codebook",
    "traditional_focus",
    "airy_weights",
    "airy_weight_rows",
    "build_codebook",
]

_NORM_TOL = 1e-12


def check_airy_columns(focal=(), launch_angle=()) -> None:
    """The cubic-beam parameter rules: every focal length positive, every
    launch angle inside |theta| < pi/2. Raises ConfigError for the first
    value that breaks them. AiryParams checks one design with it; the
    search checks whole grid axes before it scores any candidate."""
    for f in focal:
        if not f > 0:
            raise ConfigError(f"focal length must be positive, got {f}")
    for theta in launch_angle:
        if not abs(theta) < math.pi / 2:
            raise ConfigError(f"launch angle must satisfy |theta| < pi/2, got {theta} rad")


@dataclass(frozen=True)
class AiryParams:
    """Cubic-beam parameters: bending (dimensionless, typically negative),
    focal length in meters, launch angle in radians."""

    bending: float
    focal: float
    launch_angle: float = 0.0

    def __post_init__(self):
        check_airy_columns((self.focal,), (self.launch_angle,))


@dataclass(frozen=True)
class BeamWeights:
    """One codebook column: N complex weights at unit Euclidean norm.

    `kind` is "traditional" or "airy"; the matching descriptor field
    (`target` or `params`) records what the column was built for.
    """

    weights: np.ndarray
    kind: str
    target: UserPosition | None = None
    params: AiryParams | None = None

    def __post_init__(self):
        norm = float(np.linalg.norm(self.weights))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ConfigError(f"beam weights must have unit norm, got {norm!r}")

    @property
    def phases(self) -> np.ndarray:
        """Per-element phase in radians (what a phase-shifter bank realizes)."""
        return np.angle(self.weights)


@dataclass(frozen=True)
class Codebook:
    """Ordered collection of beams, one per user."""

    beams: tuple[BeamWeights, ...]

    @property
    def matrix(self) -> np.ndarray:
        """N x K analog precoding matrix (beams as columns)."""
        return np.column_stack([b.weights for b in self.beams])


def traditional_focus(
    array: ArrayGeometry, carrier: Carrier, target: UserPosition
) -> BeamWeights:
    """Near-field focusing weights: w_n = (1/sqrt(N)) e^{+j k0 r_n}.

    The +j sign conjugates the e^{-j k0 r} propagation phase, so all element
    contributions arrive at the target in phase.
    """
    if not target.z > 0:
        raise ConfigError(f"focus target must lie in front of the array (z > 0), got z={target.z}")
    xs = array.element_x()
    r = np.hypot(xs - target.x, target.z)
    w = np.exp(1j * carrier.wavenumber * r) / math.sqrt(array.n)
    return BeamWeights(weights=w, kind="traditional", target=target)


def airy_weight_rows(array: ArrayGeometry, carrier: Carrier, bending, focal,
                     launch_angle) -> np.ndarray:
    """Cubic-phase weights for many designs at once: row c (of a C x N
    array) holds the weights of design (bending[c], focal[c],
    launch_angle[c]), as documented in airy_weights. The columns are taken
    as given; check_airy_columns holds the rules they must meet.

    The lens and cubic terms depend on (bending, focal) only, so they are
    computed once per distinct pair and gathered; the
    steering term is k0 sin(theta) per design. Every row goes through the
    same elementwise operations, (lens - steer x) + bend, whatever the
    batch, so it matches airy_weights bit for bit.
    """
    xs = array.element_x()
    k0 = carrier.wavenumber
    lam = carrier.wavelength
    # Distinct (bending, focal) pairs in order of first appearance, keyed by
    # their float64 bit patterns; inverse[c] is design c's pair.
    pairs = np.column_stack([np.asarray(bending, dtype=float),
                             np.asarray(focal, dtype=float)])
    index = {}
    inverse = [index.setdefault(key, len(index))
               for key in map(tuple, pairs.view(np.int64).tolist())]
    distinct = np.array(list(index), dtype=np.int64).view(np.float64)
    pair_focal = distinct[:, 1:]
    pair_cubic = (2.0 * math.pi / (3.0 * lam)) * distinct[:, :1]
    lens = k0 * xs**2 / (2.0 * pair_focal)
    bend = pair_cubic * (xs / pair_focal) ** 3
    steer = np.array([[k0 * math.sin(theta)] for theta in launch_angle])
    phase = (lens[inverse] - steer * xs) + bend[inverse]
    return np.exp(1j * phase) / math.sqrt(array.n)


def airy_weights(
    array: ArrayGeometry, carrier: Carrier, params: AiryParams
) -> BeamWeights:
    """Cubic-phase beam: w_n = (1/sqrt(N)) e^{+j phi(x_n)} with

        phi(x) = k0 x^2 / (2 focal)  -  k0 sin(theta) x
                 + (2 pi / (3 lambda)) * bending * (x / focal)^3

    The quadratic term is a lens focused at depth ~focal, the linear term
    steers the launch direction, and the cubic term curves the trajectory:
    negative bending accelerates the lobe toward -x past the focal region.
    """
    w = airy_weight_rows(array, carrier, (params.bending,), (params.focal,),
                         (params.launch_angle,))[0]
    return BeamWeights(weights=w, kind="airy", params=params)


def build_codebook(
    scenario: ScenarioConfig,
    strategy: str,
    airy_params: AiryParams | None = None,
) -> Codebook:
    """Assemble one beam per user.

    strategy "trad_all": every user gets a traditional focusing beam.
    strategy "airy_geo": every user gets a cubic beam sharing the given
        (bending, focal); the launch angle is replaced per user by that
        user's geometric angle atan2(x, z).
    strategy "mixed": shadowed users get the given cubic-beam parameters
        verbatim, bright users get traditional beams. Raises ConfigError
        when the scenario has no shadowed user (there is nothing for the
        curved beam to do).
    """
    if strategy not in ("trad_all", "airy_geo", "mixed"):
        raise ConfigError(f"unknown codebook strategy {strategy!r}")
    if strategy != "trad_all" and airy_params is None:
        raise ConfigError(f"{strategy} strategy needs airy_params for the curved beam")
    shadowed = [False] * scenario.k
    if strategy == "mixed":
        if scenario.obstacle is None:
            raise ConfigError("mixed strategy needs an obstacle; no user can be shadowed")
        shadowed = [
            classify_user(u, scenario.obstacle, scenario.array) == "shadowed"
            for u in scenario.users
        ]
        if not any(shadowed):
            raise ConfigError(
                "mixed strategy requires at least one shadowed user; "
                "all users have line of sight"
            )
    return Codebook(tuple(_user_beam(scenario, strategy, u, airy_params, s)
                          for u, s in zip(scenario.users, shadowed)))


def _user_beam(scenario: ScenarioConfig, strategy: str, user: UserPosition,
               airy_params: AiryParams | None = None, shadowed: bool = False) -> BeamWeights:
    """One user's column of a build_codebook strategy (checked there), so a
    sweep that moves one user rebuilds only that user's column."""
    if strategy == "airy_geo":
        airy_params = replace(airy_params, launch_angle=geometric_angle(user))
    elif not shadowed:
        return traditional_focus(scenario.array, scenario.carrier, user)
    return airy_weights(scenario.array, scenario.carrier, airy_params)
