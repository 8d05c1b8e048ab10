"""Channel construction: free-space Green's model and diffraction model.

Both models produce a K x N physical matrix (users x array elements), and
every effective channel is that matrix times the analog codebook,
H_eff = H_phys @ W_RF:

* the Green's model writes each element->user coefficient in closed form,
  lambda/(4 pi r) e^{-j k0 r}, valid only with nothing in the way;
* the diffraction model builds row k by running the wave-optics cascade
  (launch filter, propagate, mask at the knife edge, propagate, sample at
  the user) transposed, from user k back to the element positions. The
  forward cascade in `propagation` stays as the independent oracle that
  this operator is tested against.

A diffraction-model matrix meets the codebook in effective_channel, whose
einsum (beam_responses) gives a beam the same bits alone or in a batch of
many. The obstructed sweeps and the calibration go through it, and the
search scores its chunks with beam_responses directly. The Green's model
keeps its own `@` product (effective_channel_greens), which rounds the
last bits differently.

The two models use different amplitude conventions (a closed-form spread
factor versus a 1D Fresnel kernel), so a single complex calibration
constant is fitted once per scenario on the obstacle-free geometry and
applied to diffraction-model channels. After calibration the models agree
to better than 2% on the obstacle-free reference, which is what makes
SINR values comparable across the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AirylinkError, ConfigError, ModelMismatchError
from .geometry import ScenarioConfig
from .propagation import (
    CascadeFactors,
    cascade_transpose,
    element_bins,
    sample_field_transpose,
)

__all__ = [
    "ChannelMatrix",
    "greens_channel",
    "diffraction_channel",
    "beam_responses",
    "check_finite",
    "effective_channel",
    "effective_channel_greens",
    "remark1_calibration",
]

GREENS_FREE_SPACE = "greens_free_space"
FRESNEL_DIFFRACTION = "fresnel_diffraction"


def check_finite(entries: np.ndarray) -> None:
    """Refuse channel entries (one matrix or a stack of them) that hold a
    NaN or an Inf."""
    if not np.all(np.isfinite(entries)):
        raise AirylinkError("channel matrix contains NaN or Inf entries")


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel matrix with provenance tags.

    kind "physical": rows = users, columns = array elements (K x N).
    kind "effective": rows = users, columns = analog beams (K x K).
    """

    entries: np.ndarray
    model: str
    kind: str

    def __post_init__(self):
        if self.model not in (GREENS_FREE_SPACE, FRESNEL_DIFFRACTION):
            raise AirylinkError(f"unknown channel model {self.model!r}")
        if self.kind not in ("physical", "effective"):
            raise AirylinkError(f"unknown channel kind {self.kind!r}")
        check_finite(self.entries)
        if self.kind == "effective" and self.entries.shape[0] != self.entries.shape[1]:
            raise AirylinkError(
                f"effective channel must be square (one beam per user), "
                f"got shape {self.entries.shape}"
            )

    @property
    def k(self) -> int:
        return self.entries.shape[0]


def greens_channel(scenario: ScenarioConfig) -> ChannelMatrix:
    """Closed-form free-space channel, h_{k,n} = lambda/(4 pi r) e^{-j k0 r}.

    Only valid with an unobstructed line of sight from every element to
    every user; refuses to run when the scenario has an obstacle.
    """
    if scenario.obstacle is not None:
        raise ModelMismatchError(
            "the closed-form free-space model cannot represent an obstacle; "
            "use diffraction_channel for blocked scenarios"
        )
    lam = scenario.carrier.wavelength
    k0 = scenario.carrier.wavenumber
    xs = scenario.array.element_x()
    rows = []
    for u in scenario.users:
        r = np.hypot(xs - u.x, u.z)
        rows.append(lam / (4.0 * math.pi * r) * np.exp(-1j * k0 * r))
    return ChannelMatrix(np.vstack(rows), model=GREENS_FREE_SPACE, kind="physical")


def beam_responses(h_phys: np.ndarray, weights, scale: complex = 1.0 + 0.0j) -> np.ndarray:
    """Per-user response of many beams at once: row c of the C x K result is
    scale * H_phys @ weights[c] for the C x N weight rows.

    The sum over elements runs in einsum's fixed order on contiguous rows,
    so a beam gets the same bits whether it is scored alone or in a batch
    (a BLAS product may switch between gemv and gemm and reorder the sum).
    """
    rows = np.ascontiguousarray(weights, dtype=complex)
    return scale * np.einsum("kn,cn->ck", h_phys, rows)


def effective_channel(
    h_phys: ChannelMatrix, w_rf, scale: complex = 1.0 + 0.0j
) -> ChannelMatrix:
    """Effective channel scale * H_phys @ W_RF of a diffraction-model
    physical matrix, one column per beam, summed as in beam_responses."""
    w = np.asarray(w_rf, dtype=complex)
    if w.ndim != 2 or w.shape[0] != h_phys.entries.shape[1]:
        raise AirylinkError(
            f"beam matrix shape {w.shape} does not match {h_phys.entries.shape[1]} elements"
        )
    entries = beam_responses(h_phys.entries, w.T, scale).T
    return ChannelMatrix(entries, model=h_phys.model, kind="effective")


def effective_channel_greens(h_phys: ChannelMatrix, w_rf: np.ndarray) -> ChannelMatrix:
    """Effective (per-beam) channel: plain product of the physical matrix
    with the N x K analog beam matrix."""
    if h_phys.kind != "physical":
        raise AirylinkError("effective_channel_greens expects a physical-kind matrix")
    w = np.asarray(w_rf, dtype=complex)
    if w.ndim != 2 or w.shape[0] != h_phys.entries.shape[1]:
        raise AirylinkError(
            f"beam matrix shape {w.shape} does not match {h_phys.entries.shape[1]} elements"
        )
    return ChannelMatrix(h_phys.entries @ w, model=h_phys.model, kind="effective")


def _amplitude_conversion(wavelength: float, depth: float) -> float:
    """Convert the 1D Fresnel field amplitude to the closed-form channel
    convention at one depth.

    The 1D kernel spreads as 1/sqrt(lambda z) while the closed-form channel
    decays as lambda/(4 pi r); their ratio, lambda^{3/2}/(4 pi sqrt(z)),
    depends on depth, so it must be applied per user before a single global
    calibration constant can reconcile the two models. Without it, users at
    different depths disagree by sqrt(z2/z1) and no scalar fit closes the gap.
    """
    return wavelength**1.5 / (4.0 * math.pi * math.sqrt(depth))


def _channel_builder(scenario: ScenarioConfig):
    """The diffraction channel of the scenario's grid, array, obstacle and
    wavelength as a function of the users: users -> K x N ChannelMatrix
    (uncalibrated).

    Row k maps element weights to user k's sample of the launched,
    knife-edge-diffracted field, converted to the closed-form amplitude
    convention. It is built by running the cascade transposed from user k
    back to the aperture: interpolation weights at the user, the two
    propagation legs and the mask in reverse (one leg when the user sits at
    or before the obstacle plane), the launch filter, then a gather at the
    element bins divided by dx -- the transpose of the unit-area spikes that
    embed_aperture deposits.

    A builder makes each cascade factor once and keeps finished rows by the
    user's (x, z), so a sweep that moves one user builds the other user's
    row once. It lives for one experiment call; nothing outlives it.
    """
    grid, obstacle, lam = scenario.grid, scenario.obstacle, scenario.carrier.wavelength
    bins = element_bins(scenario.array, grid)
    factors = CascadeFactors(grid, lam)
    rows = {}

    def channel(users) -> ChannelMatrix:
        half = grid.interior_half_width
        for u in users:
            if abs(u.x) >= half:
                raise ConfigError(
                    f"user {u.label!r} at x={u.x:.4e} m lies outside the usable window "
                    f"(|x| < {half:.4e} m)"
                )
        for u in users:
            if (u.x, u.z) not in rows:
                probe = _amplitude_conversion(lam, u.z) * sample_field_transpose(grid, u.x)
                back = cascade_transpose(probe, factors, obstacle, u.z)
                rows[(u.x, u.z)] = back[bins] / grid.dx
        entries = np.vstack([rows[(u.x, u.z)] for u in users])
        return ChannelMatrix(entries, model=FRESNEL_DIFFRACTION, kind="physical")

    return channel


def diffraction_channel(scenario: ScenarioConfig) -> ChannelMatrix:
    """Wave-optics physical channel (K x N, uncalibrated) of the scenario's
    users; see _channel_builder."""
    return _channel_builder(scenario)(scenario.users)


def remark1_calibration(scenario: ScenarioConfig) -> tuple[complex, float]:
    """Fit the single complex constant tying the two channel models together.

    Runs both models on the obstacle-free scenario with traditional
    (matched) beams and solves the scalar least-squares problem

        c* = argmin_c  sum |H_greens - c * H_diffraction|^2

    Returns (c*, residual) where residual is the relative Frobenius misfit
    after scaling. Callers apply c* to every diffraction-model channel of
    the same scenario family so both models share one amplitude scale.
    """
    if scenario.obstacle is not None:
        raise ModelMismatchError(
            "calibration must run on the obstacle-free geometry; "
            "call scenario.without_obstacle() first"
        )
    from .beams import build_codebook  # local import to avoid a module cycle

    w_rf = build_codebook(scenario, "trad_all").matrix
    h_greens = effective_channel_greens(greens_channel(scenario), w_rf).entries
    h_diff = effective_channel(diffraction_channel(scenario), w_rf).entries
    denom = np.vdot(h_diff, h_diff).real
    if denom == 0.0:
        raise AirylinkError("diffraction channel is identically zero; cannot calibrate")
    c = np.vdot(h_diff, h_greens) / denom
    residual = float(
        np.linalg.norm(h_greens - c * h_diff) / np.linalg.norm(h_greens)
    )
    return complex(c), residual
