"""Closed-form knife-edge channel: an FFT-free oracle for diffraction_channel.

Each entry of the K x N physical channel is the element's free-space
Green's coefficient times the Fresnel straight-edge factor of the path from
that element past the edge to the user (Born & Wolf, *Principles of
Optics*, sec. 11.7; ITU-R P.526, single knife edge):

    h_kn = lambda/(4 pi r) e^{-j k0 r} * F(nu_kn),
    F(nu) = ((1 + j)/2) * int_nu^inf e^{-j pi t^2 / 2} dt.

The exponent sign belongs to the package's e^{+j omega t} convention, in
which the Fresnel kernel is e^{-j k0 x^2/(2z)}; the e^{-j omega t} form,
((1 - j)/2) int e^{+j pi t^2 / 2} dt, is its complex conjugate. F tends to
1 in the lit region (nu -> -inf), equals 1/2 on the shadow boundary
(nu = 0, a quarter of the free-space intensity) and decays as
1/(pi nu sqrt 2) in deep shadow.

nu is the Fresnel-Kirchhoff diffraction parameter of the edge seen from
the element-to-user ray, positive when the edge blocks that ray. The exact
form uses the excess path length of the ray bent over the edge,
nu = +/- 2 sqrt(delta / lambda); the paraxial form uses the edge's signed
clearance h at the obstacle plane, nu = h sqrt(2/lambda (1/d1 + 1/d2)).

Fresnel integrals come from Gauss-Legendre quadrature in numpy (no scipy):
128 nodes on [0, nu] reproduce C(nu) - j S(nu) to 6e-14 absolute for
|nu| <= 10, the largest |nu| the quadrature accepts.

`oracle_search` re-implements the mixed-opt search rule on a given channel
(objective, gain floor and coarse-to-fine refinement of
optimizer.coarse_to_fine_search, on its search box optimizer.COARSE_AXES)
so the search endpoint can be predicted from the oracle instead of being
copied from a reference design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from airylink import ScenarioConfig
from airylink.beams import DESIGNS, airy_axis_rows
from airylink.geometry import BlockedSide, geometric_angle
from airylink.optimizer import COARSE_AXES, FINE_REFINE, FINE_SPAN

from batch_of_one import focus_row

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(128)
_MAX_NU = 10.0


def fresnel_integral(nu) -> np.ndarray:
    """int_0^nu e^{-j pi t^2 / 2} dt = C(nu) - j S(nu), elementwise."""
    nu = np.asarray(nu, dtype=float)
    if np.any(np.abs(nu) > _MAX_NU):
        raise ValueError(f"|nu| above {_MAX_NU} is beyond the quadrature's accuracy")
    t = 0.5 * nu[..., None] * (_NODES + 1.0)
    return 0.5 * nu * np.sum(_WEIGHTS * np.exp(-0.5j * math.pi * t**2), axis=-1)


def knife_edge_factor(nu) -> np.ndarray:
    """Field behind a straight edge relative to free space, F(nu)."""
    tail = (1.0 - 1.0j) / 2.0 - fresnel_integral(nu)
    return (1.0 + 1.0j) / 2.0 * tail


def edge_parameters(scenario: ScenarioConfig, paraxial: bool = False) -> list:
    """Per user, the N diffraction parameters nu of the element-to-user
    rays, or None when no edge lies between the array and that user."""
    obstacle = scenario.obstacle
    lam = scenario.carrier.wavelength
    xs = np.asarray(scenario.array.element_x())
    out = []
    for u in scenario.users:
        if obstacle is None or u.z <= obstacle.depth:
            out.append(None)
            continue
        d1, d2 = obstacle.depth, u.z - obstacle.depth
        crossing = xs + (u.x - xs) * d1 / u.z
        clearance = obstacle.edge_x - crossing
        if obstacle.blocked_side == BlockedSide.ABOVE_EDGE:
            clearance = -clearance
        if paraxial:
            nu = clearance * np.sqrt(2.0 / lam * (1.0 / d1 + 1.0 / d2))
        else:
            excess = (np.hypot(obstacle.edge_x - xs, d1)
                      + np.hypot(u.x - obstacle.edge_x, d2)
                      - np.hypot(u.x - xs, u.z))
            nu = np.sign(clearance) * 2.0 * np.sqrt(excess / lam)
        out.append(nu)
    return out


def oracle_channel(scenario: ScenarioConfig, paraxial: bool = False) -> np.ndarray:
    """K x N knife-edge channel in the closed-form (Green's) convention."""
    lam = scenario.carrier.wavelength
    k0 = scenario.carrier.wavenumber
    xs = np.asarray(scenario.array.element_x())
    rows = []
    for u, nu in zip(scenario.users, edge_parameters(scenario, paraxial)):
        r = np.hypot(xs - u.x, u.z)
        row = lam / (4.0 * math.pi * r) * np.exp(-1j * k0 * r)
        rows.append(row if nu is None else row * knife_edge_factor(nu))
    return np.vstack(rows)


@dataclass(frozen=True)
class Endpoint:
    """One search result: (bending, focal, angle offset in radians) and its
    sum rate, for the coarse incumbent and the final winner."""

    coarse: tuple
    coarse_rate: float
    best: tuple
    best_rate: float


def fine_steps() -> tuple:
    """Fine-stage step of each axis (bending, focal, angle offset)."""
    return tuple((axis[-1] - axis[0]) / (len(axis) - 1) / FINE_REFINE for axis in COARSE_AXES)


def _sum_rates(scenario: ScenarioConfig, h_phys: np.ndarray, designs, w2: np.ndarray):
    """Post-RZF sum rate and |h11|^2 of each cubic design for user 0 paired
    with the bright user's fixed beam w2; `designs` holds the (bending,
    focal, launch angle) columns, gathered from each column's distinct
    values."""
    axes, index = zip(*(np.unique(column, return_inverse=True) for column in designs))
    w1 = airy_axis_rows(scenario.array, scenario.carrier, *axes)(*index)
    w_rf = np.stack([w1, np.broadcast_to(w2, w1.shape)], axis=-1)
    h = np.einsum("kn,cnj->ckj", h_phys, w_rf)
    h_herm = np.conj(h).swapaxes(-1, -2)
    w_tilde = h_herm @ np.linalg.inv(h @ h_herm + scenario.rzf_epsilon * np.eye(2))
    alpha_sq = scenario.tx_power / np.sum(np.abs(w_rf @ w_tilde) ** 2, axis=(-2, -1))
    rate = 2.0 * np.log2(1.0 + alpha_sq / scenario.noise_power)
    return rate, np.abs(h[:, 0, 0]) ** 2


def oracle_search(scenario: ScenarioConfig, h_phys: np.ndarray, eta: float) -> Endpoint:
    """Constrained maximum of the post-RZF sum rate on channel h_phys, by
    the search's rule: keep designs whose |h11|^2 reaches eta times the
    geometric design's, take the first best of the coarse grid in loop
    order, then rescan +/- FINE_SPAN coarse steps around it at the fine
    step and keep the better of the two."""
    theta_geo = geometric_angle(scenario.users[0])
    w2 = focus_row(scenario.array, scenario.carrier, scenario.users[1])
    bending, focal, offset_deg = DESIGNS["airy_geo"]
    geo = ([bending], [focal], [theta_geo + math.radians(offset_deg)])
    _, h11_geo = _sum_rates(scenario, h_phys, geo, w2)
    floor = eta * h11_geo[0]

    def best_of(cands):
        bending, focal, dtheta = zip(*cands)
        designs = (bending, focal, [theta_geo + dt for dt in dtheta])
        rate, h11 = _sum_rates(scenario, h_phys, designs, w2)
        rate = np.where(h11 >= floor, rate, -np.inf)
        i = int(np.argmax(rate))
        return cands[i], float(rate[i])

    coarse, coarse_rate = best_of(list(itertools.product(*COARSE_AXES)))
    n = FINE_SPAN * FINE_REFINE
    fine_axes = [[c + i * step for i in range(-n, n + 1)]
                 for c, step in zip(coarse, fine_steps())]
    fine, fine_rate = best_of(list(itertools.product(*fine_axes)))
    if fine_rate > coarse_rate:
        return Endpoint(coarse, coarse_rate, fine, fine_rate)
    return Endpoint(coarse, coarse_rate, coarse, coarse_rate)
