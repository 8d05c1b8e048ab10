"""Analog codebook generation.

Two beam families, both phase-only with uniform 1/sqrt(N) amplitude:

* traditional near-field focusing -- per-element phase conjugation of the
  spherical propagation phase toward a target point, the matched filter for
  an unobstructed link;
* cubic-phase ("curved") beams -- a lens term, a linear steering term, and a
  cubic term that makes the main lobe follow a parabolic arc instead of a
  straight ray, which is what lets energy hook around a knife edge.

All element positions are evaluated in meters; the cubic coefficient
`bending` is dimensionless and `focal` is a length. Every beam is a plain
complex array. airy_weight_rows and traditional_focus_rows build many beams
of one family at once (the angle sweep, a codebook's users);
airy_weights and traditional_focus are their one-row views, and
build_codebook stacks one beam per user as the N x K analog matrix W_RF.
Cubic phases are gathered from per-axis tables (airy_axis_rows), which
the search builds once per stage from its grid axes and airy_weight_rows
from the distinct values of its columns; either way a design gets the
bits of airy_weights. check_airy_columns holds the parameter rules that
AiryParams and the search's up-front box check share, and
check_unit_norm the norm rule every returned beam meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "check_unit_norm",
    "traditional_focus",
    "traditional_focus_rows",
    "airy_weights",
    "airy_weight_rows",
    "airy_axis_rows",
    "airy_local_sine",
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


def check_unit_norm(weights) -> None:
    """The beam norm rule: every row of `weights` (one beam, or a stack of
    beams with elements along the last axis) has unit Euclidean norm to
    within _NORM_TOL. Raises ConfigError naming the first norm that breaks
    it, a NaN norm included."""
    norms = np.ravel(np.linalg.norm(weights, axis=-1))
    bad = ~(np.abs(norms - 1.0) <= _NORM_TOL)
    if bad.any():
        norm = float(norms[np.argmax(bad)])
        raise ConfigError(f"beam weights must have unit norm, got {norm!r}")


@dataclass(frozen=True)
class AiryParams:
    """Cubic-beam parameters: bending (dimensionless, typically negative),
    focal length in meters, launch angle in radians."""

    bending: float
    focal: float
    launch_angle: float = 0.0

    def __post_init__(self):
        check_airy_columns((self.focal,), (self.launch_angle,))


def traditional_focus(
    array: ArrayGeometry, carrier: Carrier, target: UserPosition
) -> np.ndarray:
    """Near-field focusing weights: w_n = (1/sqrt(N)) e^{+j k0 r_n}, N complex
    weights at unit norm.

    The +j sign conjugates the e^{-j k0 r} propagation phase, so all element
    contributions arrive at the target in phase.
    """
    w = traditional_focus_rows(array, carrier, (target.x,), (target.z,))[0]
    check_unit_norm(w)
    return w


def traditional_focus_rows(array: ArrayGeometry, carrier: Carrier, x, z) -> np.ndarray:
    """Focusing weights for many targets at once: row c (of a C x N array)
    focuses on (x[c], z[c]), as documented in traditional_focus. Every row
    goes through the same elementwise operations whatever the batch, so it
    matches traditional_focus bit for bit."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    for depth in z.tolist():
        if not depth > 0:
            raise ConfigError(f"focus target must lie in front of the array (z > 0), got z={depth}")
    r = np.hypot(array.element_x() - x[:, None], z[:, None])
    return np.exp(1j * carrier.wavenumber * r) / math.sqrt(array.n)


def airy_axis_rows(array: ArrayGeometry, carrier: Carrier, bending, focal, launch_angle):
    """Cubic-phase weights of designs drawn from three parameter axes.

    Builds the per-axis phase tables once: k0 x^2 / (2 f) and (x / f)^3 per
    focal value, (2 pi / (3 lambda)) b per bending value and
    (k0 sin(theta)) x per launch angle (one math.sin per value). Returns
    rows(i, j, k), which gives the C x N weights of the designs
    (bending[i[c]], focal[j[c]], launch_angle[k[c]]) by gathering table
    rows into (lens - steer) + coef * cube, airy_weights' phase in its own
    order of operations, so every row has airy_weights' bits. The axes
    are taken as given; check_airy_columns holds the rules they must meet.
    """
    xs = array.element_x()
    k0 = carrier.wavenumber
    focal_m = np.asarray(focal, dtype=float)[:, None]
    lens = k0 * xs**2 / (2.0 * focal_m)
    cube = (xs / focal_m) ** 3
    coef = (2.0 * math.pi / (3.0 * carrier.wavelength)) * np.asarray(bending, dtype=float)
    steer = np.array([[k0 * math.sin(theta)] for theta in launch_angle]) * xs
    norm = math.sqrt(array.n)

    def rows(i, j, k) -> np.ndarray:
        phase = (lens[j] - steer[k]) + coef[i][:, None] * cube[j]
        return np.exp(1j * phase) / norm

    return rows


def airy_weight_rows(array: ArrayGeometry, carrier: Carrier, bending, focal,
                     launch_angle) -> np.ndarray:
    """Cubic-phase weights for many designs at once: row c (of a C x N
    array) holds the weights of design (bending[c], focal[c],
    launch_angle[c]), as documented in airy_weights. The columns are taken
    as given; check_airy_columns holds the rules they must meet.

    Each column is reduced to its distinct values (by float64 bit
    pattern), and airy_axis_rows builds the phase tables of those values
    and gathers every design's row, so a row has the same bits whatever
    the batch.
    """
    axes = [np.unique(np.asarray(column, dtype=float).view(np.int64), return_inverse=True)
            for column in (bending, focal, launch_angle)]
    rows = airy_axis_rows(array, carrier, *(values.view(np.float64) for values, _ in axes))
    return rows(*(index for _, index in axes))


def airy_weights(
    array: ArrayGeometry, carrier: Carrier, params: AiryParams
) -> np.ndarray:
    """Cubic-phase beam: N complex weights w_n = (1/sqrt(N)) e^{+j phi(x_n)}
    at unit norm, with

        phi(x) = k0 x^2 / (2 focal)  -  k0 sin(theta) x
                 + (2 pi / (3 lambda)) * bending * (x / focal)^3

    The quadratic term is a lens focused at depth ~focal, the linear term
    steers the launch direction, and the cubic term curves the trajectory:
    negative bending accelerates the lobe toward -x past the focal region.
    """
    w = airy_weight_rows(array, carrier, (params.bending,), (params.focal,),
                         (params.launch_angle,))[0]
    check_unit_norm(w)
    return w


def airy_local_sine(array: ArrayGeometry, bending, focal, launch_angle):
    """Per cubic beam (the parameters broadcast), the largest local sine
    |x/f + b x^2/f^3 - sin(theta)| over the elements: d(phi)/dx of
    airy_weights' phase over k0. Past propagation.LAUNCH_CUTOFF_SINE the
    launch filter cuts it; past 1 the element grid aliases it."""
    b, f, theta = np.broadcast_arrays(bending, focal, launch_angle)
    # The largest |slope - sin| is max(slope) - sin or sin - min(slope), so the
    # slope is formed once per (bending, focal) pair, keyed bit for bit.
    keys = np.stack([b.ravel(), f.ravel()], axis=-1).astype(float).view(complex).ravel()
    pairs, inverse = np.unique(keys, return_inverse=True)
    xs = array.element_x()
    focal_m = pairs.imag[:, None]
    slope = xs / focal_m + pairs.real[:, None] * xs**2 / focal_m**3
    sine = np.sin(theta).ravel()
    return np.maximum(slope.max(axis=1)[inverse] - sine,
                      sine - slope.min(axis=1)[inverse]).reshape(b.shape)


def build_codebook(
    scenario: ScenarioConfig,
    strategy: str,
    airy_params: AiryParams | None = None,
) -> np.ndarray:
    """The analog matrix W_RF: one beam per user, as the columns of a
    C-contiguous N x K array.

    strategy "trad_all": every user gets a traditional focusing beam.
    strategy "airy_geo": every user gets a cubic beam sharing the given
        (bending, focal); the launch angle is replaced per user by that
        user's geometric angle atan2(x, z).
    strategy "mixed": shadowed users get the given cubic-beam parameters
        verbatim, bright users get traditional beams. Raises ConfigError
        when the scenario has no shadowed user (there is nothing for the
        curved beam to do).

    Each family's beams come from one batched call, whose rows have the
    bits of the one-row traditional_focus and airy_weights.
    """
    if strategy not in ("trad_all", "airy_geo", "mixed"):
        raise ConfigError(f"unknown codebook strategy {strategy!r}")
    if strategy != "trad_all" and airy_params is None:
        raise ConfigError(f"{strategy} strategy needs airy_params for the curved beam")
    curved = np.full(scenario.k, strategy == "airy_geo")
    if strategy == "mixed":
        if scenario.obstacle is None:
            raise ConfigError("mixed strategy needs an obstacle; no user can be shadowed")
        curved[:] = [classify_user(u, scenario.obstacle, scenario.array) == "shadowed"
                     for u in scenario.users]
        if not curved.any():
            raise ConfigError(
                "mixed strategy requires at least one shadowed user; "
                "all users have line of sight"
            )
    rows = np.empty((scenario.k, scenario.array.n), dtype=complex)
    focused = [u for u, c in zip(scenario.users, curved) if not c]
    if focused:
        rows[~curved] = traditional_focus_rows(scenario.array, scenario.carrier,
                                               [u.x for u in focused], [u.z for u in focused])
    m = int(np.count_nonzero(curved))
    if m:
        if strategy == "airy_geo":
            angles = [geometric_angle(u) for u in scenario.users]
            check_airy_columns(launch_angle=angles)
        else:
            angles = [airy_params.launch_angle] * m
        rows[curved] = airy_weight_rows(scenario.array, scenario.carrier,
                                        [airy_params.bending] * m, [airy_params.focal] * m,
                                        angles)
    check_unit_norm(rows)
    return np.ascontiguousarray(rows.T)
