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
complex array. airy_axis_rows and traditional_focus_rows build many beams
of one family at once (a search stage, the angle sweep, a codebook's
users); airy_weights is the cubic family's one-row view, and
build_codebook stacks one beam per user as the N x K analog matrix W_RF.
Its 'airy_geo' codebook is also what the beam search compares against:
the geometric design that sets its gain floor and the bright user's beam.
A codebook strategy is 'trad_all', which focuses on every user, or one of
the curved strategies of DESIGNS, which gives each shadowed user
(geometry.classify_user) the strategy's cubic design at that user's
geometric angle plus the design's offset, and focuses on every bright
user. DESIGNS is the one place the two designs' numbers are written.
airy_axis_rows is the one cubic-phase builder: it takes parameter axes,
builds a lens-and-steer phasor table over focal x angle and a bending
phasor table over bending x focal once, and gives any design's row as the
product of its two entries, with the bits airy_weights gives that design.
check_airy_columns holds the parameter rules, checked where cubic beams
are built (AiryParams, airy_axis_rows), and check_unit_norm the norm rule
every beam meets.
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
    classify_user,
    geometric_angle,
)

__all__ = [
    "DESIGNS",
    "AiryParams",
    "check_airy_columns",
    "check_unit_norm",
    "traditional_focus_rows",
    "airy_weights",
    "airy_axis_rows",
    "airy_local_sine",
    "build_codebook",
]

_NORM_TOL = 1e-12

# The cubic design of each curved codebook strategy: (bending, focal length
# in meters, launch-angle offset in degrees from the user's geometric
# angle). 'airy_geo' is the geometric comparator: moderate bending with the
# focal region a little beyond the obstacle plane, aimed straight at the
# user. 'airy_opt' is the reference tuned design.
DESIGNS = {"airy_geo": (-25.0, 1.75, 0.0), "airy_opt": (-44.0, 1.50, -2.9)}


def check_airy_columns(focal, launch_angle) -> None:
    """The cubic-beam parameter rules: every focal length positive, every
    launch angle inside |theta| < pi/2. Raises ConfigError for the first
    value that breaks them. AiryParams checks one design with it, and
    airy_axis_rows its focal and launch-angle axes."""
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


def traditional_focus_rows(array: ArrayGeometry, carrier: Carrier, x, z) -> np.ndarray:
    """Near-field focusing weights for many targets at once: row c (of a
    C x N array) focuses on (x[c], z[c]) with w_n = (1/sqrt(N)) e^{+j k0 r_n}.

    The +j sign conjugates the e^{-j k0 r} propagation phase, so all element
    contributions arrive at the target in phase. Every row goes through the
    same elementwise operations whatever the batch, so a target gets the
    same bits alone or among others."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    for depth in z.tolist():
        if not depth > 0:
            raise ConfigError(f"focus target must lie in front of the array (z > 0), got z={depth}")
    r = np.hypot(array.element_x() - x[:, None], z[:, None])
    return np.exp(1j * carrier.wavenumber * r) / math.sqrt(array.n)


def airy_axis_rows(array: ArrayGeometry, carrier: Carrier, bending, focal, launch_angle):
    """Cubic-phase weights of designs drawn from three parameter axes.

    Builds the per-axis phase rows once: lens = k0 x^2 / (2 f) and
    cube = (x / f)^3 per focal value, coef = (2 pi / (3 lambda)) b per
    bending value and steer = (k0 sin(theta)) x per launch angle (one
    math.sin per value). From them it builds two phasor tables, the
    F x A x N lens-and-steer table e^{j (lens - steer)} / sqrt(N) over
    focal x angle and the B x F x N bending table e^{j coef cube} over
    bending x focal, so a grid of B x F x A designs takes (F A + B F) N
    complex exponentials instead of B F A N. Returns rows(i, j, k), which
    gives the C x N weights of the designs (bending[i[c]], focal[j[c]],
    launch_angle[k[c]]) as lens_steer[j, k] * bend[i, j], whatever the
    batch: every row has the bits airy_weights gives its design. The
    product skips the rounding of the summed phase, so a weight differs
    from e^{j phi} / sqrt(N) of the summed phase phi by a few ulps of
    |lens - steer| + |coef cube|. The indices broadcast, so
    rows(0, 0, np.arange(m)) gives one (bending, focal) pair at m angles.
    The tables span every pair of axis values, so pass axes of distinct
    values: design columns of C designs would build C x C tables. The focal
    and launch-angle axes are checked with check_airy_columns before any
    table is built.
    """
    check_airy_columns(focal, launch_angle)
    xs = array.element_x()
    k0 = carrier.wavenumber
    focal_m = np.asarray(focal, dtype=float)[:, None]
    lens = k0 * xs**2 / (2.0 * focal_m)
    cube = (xs / focal_m) ** 3
    coef = (2.0 * math.pi / (3.0 * carrier.wavelength)) * np.asarray(bending, dtype=float)
    steer = np.array([[k0 * math.sin(theta)] for theta in launch_angle]) * xs
    lens_steer = np.exp(1j * (lens[:, None] - steer)) / math.sqrt(array.n)
    bend = np.exp(1j * (coef[:, None, None] * cube))

    def rows(i, j, k) -> np.ndarray:
        return lens_steer[j, k] * bend[i, j]

    return rows


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

    The weights are airy_axis_rows' row of one design, with the bits every
    other row of that design gets: the lens-and-steer phasor
    e^{j (lens - steer)} / sqrt(N) times the bending phasor e^{j coef cube}.
    Each differs from the single exponential above by a few ulps of
    |lens - steer| + |coef cube|.
    """
    w = airy_axis_rows(array, carrier, (params.bending,), (params.focal,),
                       (params.launch_angle,))(0, 0, 0)
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


def build_codebook(scenario: ScenarioConfig, strategy: str) -> np.ndarray:
    """The analog matrix W_RF: one beam per user, as the columns of a
    C-contiguous N x K array.

    strategy "trad_all": every user gets a traditional focusing beam.
    strategy "airy_geo" or "airy_opt": every user that classify_user calls
        shadowed gets that strategy's cubic design from DESIGNS, launched
        at the user's own geometric angle atan2(x, z) plus the design's
        offset; every bright user (every user, without an obstacle) gets a
        traditional focusing beam.

    Each family's beams come from one batched call, whose rows have the
    bits of a one-target traditional_focus_rows call and of airy_weights.
    """
    if strategy != "trad_all" and strategy not in DESIGNS:
        raise ConfigError(f"unknown codebook strategy {strategy!r}")
    curved = np.array([strategy in DESIGNS and scenario.obstacle is not None
                       and classify_user(u, scenario.obstacle) == "shadowed"
                       for u in scenario.users], dtype=bool)
    rows = np.empty((scenario.k, scenario.array.n), dtype=complex)
    focused = [u for u, c in zip(scenario.users, curved) if not c]
    if focused:
        rows[~curved] = traditional_focus_rows(scenario.array, scenario.carrier,
                                               [u.x for u in focused], [u.z for u in focused])
    if curved.any():
        bending, focal, offset_deg = DESIGNS[strategy]
        angles = [geometric_angle(u) + math.radians(offset_deg)
                  for u, c in zip(scenario.users, curved) if c]
        rows[curved] = airy_axis_rows(scenario.array, scenario.carrier, (bending,), (focal,),
                                      angles)(0, 0, np.arange(len(angles)))
    check_unit_norm(rows)
    return np.ascontiguousarray(rows.T)
