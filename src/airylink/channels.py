"""Channel construction: free-space Green's model and diffraction model.

Both models produce a K x N physical matrix (users x array elements), and
every effective channel is that matrix times the K x N beam rows of
beams.build_codebook, H_eff[k, c] = h_phys[k] @ beams[c] (K x K). Each is
a plain complex array, and check_finite refuses one that holds a NaN or an Inf:

* the Green's model writes each element->user coefficient in closed form,
  lambda/(4 pi r) e^{-j k0 r}, valid only with nothing in the way;
* the diffraction model builds row k by running the wave-optics cascade
  (launch filter, propagate, mask at the knife edge, propagate, sample at
  the user) transposed, from user k back to the element positions, with
  propagation.Cascade.transpose, once per user. The field maps run the
  same Cascade forward. The tests check the rows against the forward
  per-beam cascade and, bit for bit, against a transposed cascade they
  compose from the factor definitions in `propagation`.

Neither model re-checks its users: ScenarioConfig refused any outside the
usable window or on the obstacle plane when it was built.

Both models meet the codebook in beam_responses, the one product of user
rows and beam rows: its einsum gives an entry the same bits alone or in a
batch, and its leading axes broadcast. The calibration calls it on each
model's rows and one codebook, a sweep stacks each point's rows and beams
and calls it once, and the search scores each chunk of candidate beams
with it.

The two models use different amplitude conventions (a closed-form spread
factor versus a 1D Fresnel kernel), so remark1_calibration fits a single
complex constant per scenario on its obstacle-free geometry. After
calibration the models agree to better than 2% on the obstacle-free
reference, which is what makes SINR values comparable across the two.
Each consumer (the blocked sweeps, the search) fits it on its scenario and
multiplies the row matrix of diffraction_channel by it once, where it
builds it; the mixed-optimization run reuses the search's rows.
"""

from __future__ import annotations

import math

import numpy as np

from .beams import build_codebook
from .errors import AirylinkError, ConfigError, ModelMismatchError
from .geometry import ScenarioConfig
from .propagation import Cascade, element_bins, sample_field_transpose

__all__ = [
    "greens_channel",
    "diffraction_channel",
    "beam_responses",
    "check_finite",
    "remark1_calibration",
]

def check_finite(entries: np.ndarray) -> None:
    """Refuse channel entries (one matrix or a stack of them) that hold a
    NaN or an Inf."""
    if not np.all(np.isfinite(entries)):
        raise AirylinkError("channel matrix contains NaN or Inf entries")


def greens_channel(scenario: ScenarioConfig) -> np.ndarray:
    """Closed-form free-space channel (K x N), h_{k,n} = lambda/(4 pi r) e^{-j k0 r}.

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
    ux = np.array([[u.x] for u in scenario.users])
    uz = np.array([[u.z] for u in scenario.users])
    # One broadcast over (user, element); each entry takes the same
    # elementwise steps as a row built for its user alone.
    r = np.hypot(scenario.array.element_x() - ux, uz)
    entries = lam / (4.0 * math.pi * r) * np.exp(-1j * k0 * r)
    check_finite(entries)
    return entries


def beam_responses(h_phys: np.ndarray, beams) -> np.ndarray:
    """Response of many beams at many users at once: user rows h_phys
    (..., K, N) times beam rows (..., C, N) give the (..., K, C) effective
    channels, entry [k, c] = h_phys[k] @ beams[c]. Leading axes broadcast.

    The sum over elements runs in einsum's fixed order on beam rows made
    contiguous along the elements, so an entry gets the same bits whether
    it is formed alone or in a batch (a BLAS product may switch between
    gemv and gemm and reorder the sum).
    """
    beam_rows = np.ascontiguousarray(beams, dtype=complex)
    return np.einsum("...kn,...cn->...kc", h_phys, beam_rows)


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


def diffraction_channel(scenario: ScenarioConfig) -> np.ndarray:
    """Wave-optics physical channel (K x N, uncalibrated) of the scenario's
    users.

    Row k maps element weights to user k's sample of the launched,
    knife-edge-diffracted field, converted to the closed-form amplitude
    convention. It is built by running the cascade transposed from user k
    back to the aperture: interpolation weights at the user, the two
    propagation legs and the mask in reverse (one leg when the user sits
    before the obstacle plane), the launch filter, then a gather at the
    element bins divided by dx -- the transpose of the unit-area spikes that
    embed_aperture deposits.

    One Cascade makes each factor once for every row, so a sweep passes
    the fixed user and every moved user in one scenario and gets all of
    their rows at once.
    """
    grid, lam = scenario.grid, scenario.carrier.wavelength
    bins = element_bins(scenario.array, grid)
    cascade = Cascade(grid, lam, scenario.obstacle)
    entries = np.vstack([
        cascade.transpose(_amplitude_conversion(lam, u.z) * sample_field_transpose(grid, u.x),
                          u.z)[bins] / grid.dx
        for u in scenario.users])
    check_finite(entries)
    return entries


def remark1_calibration(scenario: ScenarioConfig) -> tuple[complex, float]:
    """Fit the single complex constant tying the two channel models together.

    Runs both models on the scenario with its obstacle removed, with
    traditional (matched) beams, and solves the scalar least-squares problem

        c* = argmin_c  sum |H_greens - c * H_diffraction|^2

    Returns (c*, residual) where residual is the relative Frobenius misfit
    after scaling. Callers multiply the scenario's diffraction rows by c*
    so both models share one amplitude scale. Fewer than two users are
    refused: one constant always fits a 1 x 1 channel exactly, so the
    residual would read 0 whatever the models do.
    """
    if scenario.k < 2:
        raise ConfigError(f"calibration needs at least two users, got {scenario.k}")
    free = scenario.without_obstacle()
    beams = build_codebook(free, "trad_all")
    h_greens = beam_responses(greens_channel(free), beams)
    h_diff = beam_responses(diffraction_channel(free), beams)
    denom = np.vdot(h_diff, h_diff).real
    if denom == 0.0:
        raise AirylinkError("diffraction channel is identically zero; cannot calibrate")
    c = np.vdot(h_diff, h_greens) / denom
    residual = float(
        np.linalg.norm(h_greens - c * h_diff) / np.linalg.norm(h_greens)
    )
    return complex(c), residual
