"""Scalar wave propagation on a 1D transverse grid.

The solver is the FFT angular-spectrum method with the paraxial (Fresnel)
transfer function; a direct O(Nx^2) quadrature of the Fresnel integral
serves as an independent oracle for testing. Both use the e^{+j omega t}
time convention, so forward propagation carries phase e^{-j k0 z} and a
point source radiates e^{-j k0 (z + x^2/(2z))}.

Transfer function and kernel are a matched pair:

    H(f) = exp(-j k0 z) * exp(+j pi lambda z f^2)
    h(x) = sqrt(j/(lambda z)) * exp(-j k0 z) * exp(-j k0 x^2 / (2 z))

The sign of the quadratic spectral phase and the sqrt(j) prefactor are
forced by three contracts at once: the propagator must be exactly unitary,
must compose as a semigroup, and must agree with the quadrature oracle to
better than 1e-3 -- only this pairing satisfies all three (a conjugated
transfer function or a 1/sqrt(j) prefactor each break one of them).

Boundary handling: a super-Gaussian absorber multiplies the field after
every propagation step, eating energy that would otherwise wrap around the
periodic window. Grids with apod_width = 0 disable it (used by the
conservation tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AirylinkError, GridError
from .geometry import ArrayGeometry, GridSpec, KnifeEdgeObstacle

__all__ = [
    "ComplexField",
    "grid_x",
    "grid_fx",
    "embed_aperture",
    "band_limit",
    "propagate_angular_spectrum",
    "propagate_direct_fresnel",
    "apply_mask",
    "propagate_blocked",
    "sample_field",
    "sample_field_transpose",
    "CascadeFactors",
    "cascade_transpose",
    "element_bins",
    "launch_aperture",
    "IntensityMap",
    "intensity_map",
]

# Angular acceptance of the launch-side anti-aliasing filter, in units of
# |lambda * f_x| (the sine of the propagation angle). 0.5 passes every beam
# the codebooks can steer (the steepest published cubic reaches ~0.41) while
# killing the super-Nyquist replicas of nearest-bin element deposition.
LAUNCH_CUTOFF_SINE = 0.5
_LAUNCH_ORDER = 8
# Super-Gaussian exponent of the boundary absorber.
_APOD_ORDER = 8


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar field sampled on a uniform transverse grid at one depth."""

    samples: np.ndarray
    grid: GridSpec
    depth: float

    def __post_init__(self):
        if self.samples.shape != (self.grid.nx,):
            raise GridError(
                f"field has {self.samples.shape} samples, grid expects ({self.grid.nx},)"
            )

    @property
    def energy(self) -> float:
        """Discrete field energy, sum |E|^2 dx."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.grid.dx)


def grid_x(grid: GridSpec) -> np.ndarray:
    """Sample x coordinates, centered so index nx//2 sits at x = 0."""
    return (np.arange(grid.nx) - grid.nx // 2) * grid.dx


def grid_fx(grid: GridSpec) -> np.ndarray:
    """Spatial frequencies matching numpy's FFT ordering."""
    return np.fft.fftfreq(grid.nx, d=grid.dx)


def _apodization(grid: GridSpec) -> np.ndarray | None:
    if grid.apod_width == 0:
        return None
    x = np.abs(grid_x(grid))
    x0 = 0.5 * grid.window - grid.apod_width
    # Half-width so the window decays to exp(-256) at the window boundary.
    w = 0.5 * grid.apod_width
    window = np.ones(grid.nx)
    border = x > x0
    window[border] = np.exp(-(((x[border] - x0) / w) ** _APOD_ORDER))
    return window


def element_bins(array: ArrayGeometry, grid: GridSpec) -> list[int]:
    """Grid index nearest to each element; raises GridError for an element
    outside the usable window."""
    half = grid.interior_half_width
    bins = []
    for idx, ex in enumerate(array.element_x()):
        if abs(ex) >= half:
            raise GridError(
                f"element {idx} at x={ex:.4e} m falls outside the usable window "
                f"(|x| < {half:.4e} m)"
            )
        bins.append(int(round(ex / grid.dx)) + grid.nx // 2)
    return bins


def embed_aperture(weights, array: ArrayGeometry, grid: GridSpec) -> ComplexField:
    """Deposit per-element complex weights onto the grid as unit-area spikes.

    Each weight lands on the nearest grid sample with amplitude weight/dx, so
    the field integrates to the weight; all other samples are zero. Positioning
    error is at most dx/2.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (array.n,):
        raise GridError(f"expected {array.n} weights, got shape {w.shape}")
    samples = np.zeros(grid.nx, dtype=complex)
    for bin_, wn in zip(element_bins(array, grid), w):
        samples[bin_] += wn / grid.dx
    return ComplexField(samples=samples, grid=grid, depth=0.0)


def _launch_filter(grid: GridSpec, wavelength: float) -> np.ndarray:
    sine = np.abs(wavelength * grid_fx(grid))
    return np.exp(-((sine / LAUNCH_CUTOFF_SINE) ** _LAUNCH_ORDER))


def _transfer_function(grid: GridSpec, distance: float, wavelength: float) -> np.ndarray:
    """exp(+j pi lambda z f^2) on the FFT bins, the exponential taken on
    bins 0..nx/2 only. fftfreq builds bin nx - k as exactly -f[k], so its
    squared frequency, its argument and its exponential equal those of bin
    k bit for bit: bins nx/2+1..nx-1 are copies of bins nx/2-1..1."""
    half = grid.nx // 2
    h = np.empty(grid.nx, dtype=complex)
    np.exp(1j * math.pi * wavelength * distance * grid.half_band_fx2(), out=h[:half + 1])
    h[half + 1:] = h[half - 1:0:-1]
    return h


def _clear_side(grid: GridSpec, obstacle: KnifeEdgeObstacle) -> np.ndarray:
    """Boolean mask of the samples the knife edge lets through."""
    return ~obstacle.blocks(grid_x(grid))


def band_limit(field: ComplexField, wavelength: float) -> ComplexField:
    """Launch-side angular acceptance filter.

    Nearest-bin spikes are spectrally white: most of their energy lies at
    spatial frequencies beyond |sin| = 1 that no physical aperture radiates,
    and under a paraxial transfer function that junk wraps around the window
    and buries the real diffraction pattern. This filter keeps the physical
    angular range (8th-order super-Gaussian in |lambda f_x|, cutoff at
    LAUNCH_CUTOFF_SINE) and is applied once when a codebook column is launched --
    the propagator itself stays exactly unitary.
    """
    spectrum = np.fft.fft(field.samples)
    spectrum *= _launch_filter(field.grid, wavelength)
    return ComplexField(np.fft.ifft(spectrum), field.grid, field.depth)


def launch_aperture(weights, array: ArrayGeometry, grid: GridSpec,
                    wavelength: float) -> ComplexField:
    """Embed codebook weights and apply the launch filter in one step."""
    return band_limit(embed_aperture(weights, array, grid), wavelength=wavelength)


def propagate_angular_spectrum(
    field: ComplexField, distance: float, wavelength: float
) -> ComplexField:
    """Fresnel propagation by FFT: transform, multiply by
    exp(-j k0 z) exp(+j pi lambda z f^2), transform back, apodize."""
    out = _propagate_spectrum(np.fft.fft(field.samples), field.grid, distance,
                              wavelength, _apodization(field.grid))
    return ComplexField(out, field.grid, field.depth + distance)


def _propagate_spectrum(spectrum: np.ndarray, grid: GridSpec, distance: float,
                        wavelength: float, apod: np.ndarray | None) -> np.ndarray:
    """The second half of propagate_angular_spectrum: the samples at
    `distance` from a field whose FFT is `spectrum`, with `apod` the grid's
    absorber. Callers that propagate one field to many depths transform it
    once and pass the window once."""
    if distance < 0:
        raise AirylinkError(f"propagation distance must be nonnegative, got {distance}")
    k0 = 2.0 * math.pi / wavelength
    out = np.fft.ifft(spectrum * _transfer_function(grid, distance, wavelength))
    out *= np.exp(-1j * k0 * distance)
    if apod is not None:
        out *= apod
    return out


def propagate_direct_fresnel(
    field: ComplexField, distance: float, wavelength: float
) -> ComplexField:
    """Brute-force quadrature of the Fresnel integral (the testing oracle).

    E(x) = sqrt(j/(lambda z)) e^{-j k0 z} * sum E0(x') e^{-j k0 (x-x')^2/(2z)} dx'

    O(Nx^2) and FFT-free. On a uniform grid the kernel depends only on the
    index difference i - j, so its 2 Nx - 1 distinct values are computed
    once and row i of the kernel is gathered as a contiguous slice of them
    (reversed, so it meets the reversed field); rows go in blocks to bound
    memory.
    """
    if distance <= 0:
        raise AirylinkError("direct Fresnel quadrature needs distance > 0; use the field as-is for z=0")
    grid = field.grid
    nx = grid.nx
    k0 = 2.0 * math.pi / wavelength
    pref = np.sqrt(1j / (wavelength * distance)) * np.exp(-1j * k0 * distance) * grid.dx
    offsets = np.arange(-(nx - 1), nx) * grid.dx
    # values[m + nx - 1] is the kernel at x_i - x_j = m dx, so row i of the
    # kernel, reversed, is values[i : i + nx].
    values = np.exp(-1j * k0 * offsets**2 / (2.0 * distance))
    rows = np.lib.stride_tricks.sliding_window_view(values, nx)
    reversed_samples = field.samples[::-1]
    out = np.empty(nx, dtype=complex)
    block = 256
    for start in range(0, nx, block):
        stop = min(start + block, nx)
        out[start:stop] = np.ascontiguousarray(rows[start:stop]) @ reversed_samples
    out *= pref
    apod = _apodization(grid)
    if apod is not None:
        out = out * apod
    return ComplexField(out, grid, field.depth + distance)


def apply_mask(field: ComplexField, obstacle: KnifeEdgeObstacle) -> ComplexField:
    """Zero the blocked half-line (edge bin included) at the obstacle plane."""
    if abs(field.depth - obstacle.depth) > field.grid.dx:
        raise AirylinkError(
            f"mask applied at depth {field.depth:.6e} m but the obstacle sits at "
            f"{obstacle.depth:.6e} m; propagate to the obstacle plane first"
        )
    keep = _clear_side(field.grid, obstacle)
    return ComplexField(np.where(keep, field.samples, 0.0 + 0.0j), field.grid, field.depth)


def propagate_blocked(
    aperture: ComplexField,
    obstacle: KnifeEdgeObstacle | None,
    target_depth: float,
    wavelength: float,
) -> ComplexField:
    """Two-stage cascade: propagate to the obstacle, mask, continue to the target.

    Reduces to plain propagation when there is no obstacle or the target lies
    at or before the obstacle plane.
    """
    if target_depth <= 0:
        raise AirylinkError(f"target depth must be positive, got {target_depth}")
    if obstacle is None or target_depth <= obstacle.depth:
        return propagate_angular_spectrum(aperture, target_depth - aperture.depth, wavelength)
    at_obstacle = propagate_angular_spectrum(
        aperture, obstacle.depth - aperture.depth, wavelength
    )
    masked = apply_mask(at_obstacle, obstacle)
    return propagate_angular_spectrum(masked, target_depth - obstacle.depth, wavelength)


def _interpolation(grid: GridSpec, x: float) -> tuple[int, float]:
    """Lower sample index and fractional offset of position x."""
    half = grid.interior_half_width
    if abs(x) >= half:
        raise AirylinkError(
            f"sample point x={x:.4e} m outside the usable window (|x| < {half:.4e} m)"
        )
    pos = x / grid.dx + grid.nx // 2
    low = int(math.floor(pos))
    return low, pos - low


def sample_field(field: ComplexField, x: float) -> complex:
    """Linear interpolation of the field at transverse position x (meters)."""
    low, frac = _interpolation(field.grid, x)
    s = field.samples
    return complex((1.0 - frac) * s[low] + frac * s[low + 1])


def sample_field_transpose(grid: GridSpec, x: float) -> np.ndarray:
    """The row vector that sample_field applies: sample_field(f, x) equals
    sample_field_transpose(f.grid, x) @ f.samples."""
    low, frac = _interpolation(grid, x)
    probe = np.zeros(grid.nx, dtype=complex)
    probe[low] = 1.0 - frac
    probe[low + 1] = frac
    return probe


class CascadeFactors:
    """The diagonal factors of the launch cascade on one grid at one
    wavelength: the absorber, the launch filter and one spectral factor per
    leg, each built on first use and kept only as long as the object, so a
    caller that runs the cascade for many users builds each factor once."""

    def __init__(self, grid: GridSpec, wavelength: float):
        self.grid, self.wavelength = grid, wavelength
        self.apod = _apodization(grid)
        self.launch = _launch_filter(grid, wavelength)
        self._spectral = {}

    def spectral(self, distance: float, launch: bool) -> np.ndarray:
        """H(distance), times the launch filter for the leg that ends at the
        aperture."""
        key = (distance, launch)
        if key not in self._spectral:
            h = _transfer_function(self.grid, distance, self.wavelength)
            self._spectral[key] = h * self.launch if launch else h
        return self._spectral[key]


def cascade_transpose(
    probe: np.ndarray,
    factors: CascadeFactors,
    obstacle: KnifeEdgeObstacle | None,
    target_depth: float,
) -> np.ndarray:
    """Transpose of the launch cascade, band_limit then propagate_blocked from
    depth 0 to `target_depth`, seen as a linear map on the aperture samples
    of `factors.grid` at `factors.wavelength`.

    `probe` lives on the target plane and the result on the aperture plane:
    for any aperture samples a, probe @ cascade(a) == result @ a. Each leg
    ifft(fft(.) * H) transposes to fft(ifft(.) * H) because the DFT matrix is
    symmetric; the phase, absorber and mask are diagonal and transpose to
    themselves. The launch filter shares one FFT pair with the first leg.
    """
    if target_depth <= 0:
        raise AirylinkError(f"target depth must be positive, got {target_depth}")
    k0 = 2.0 * math.pi / factors.wavelength

    def leg(v: np.ndarray, distance: float, launch: bool) -> np.ndarray:
        v = v * np.exp(-1j * k0 * distance)
        if factors.apod is not None:
            v = v * factors.apod
        return np.fft.fft(np.fft.ifft(v) * factors.spectral(distance, launch))

    v = np.asarray(probe, dtype=complex)
    if obstacle is None or target_depth <= obstacle.depth:
        return leg(v, target_depth, launch=True)
    v = leg(v, target_depth - obstacle.depth, launch=False)
    v = np.where(_clear_side(factors.grid, obstacle), v, 0.0 + 0.0j)
    return leg(v, obstacle.depth, launch=True)


@dataclass(frozen=True)
class IntensityMap:
    """dB intensity over (depth, x), normalized to 0 dB at the global peak.

    `peak` keeps the absolute |E|^2 value that was mapped to 0 dB so maps
    from different runs remain comparable.
    """

    db: np.ndarray
    depths: tuple
    peak: float
    floor_db: float


def intensity_map(
    aperture: ComplexField,
    obstacle: KnifeEdgeObstacle | None,
    depths,
    wavelength: float,
    floor_db: float = -60.0,
) -> IntensityMap:
    """Propagated |E|^2 in dB over a list of depths (rows), normalized so the
    global maximum is exactly 0 dB and clipped at `floor_db`.

    Row i is |propagate_blocked(aperture, obstacle, depths[i], wavelength)|^2
    bit for bit, but the cascade runs once: the aperture spectrum and the
    masked obstacle-plane spectrum are each taken once, so every depth costs
    one inverse FFT.
    """
    depths = [float(d) for d in depths]
    if not depths:
        raise AirylinkError("intensity_map needs at least one depth")
    if any(d <= 0 for d in depths):
        raise AirylinkError("all depths must be positive")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise AirylinkError("depths must be strictly increasing")
    grid = aperture.grid
    apod = _apodization(grid)
    spectrum = np.fft.fft(aperture.samples)
    if obstacle is not None and depths[-1] > obstacle.depth:
        at_obstacle = propagate_angular_spectrum(
            aperture, obstacle.depth - aperture.depth, wavelength
        )
        masked_spectrum = np.fft.fft(apply_mask(at_obstacle, obstacle).samples)
    rows = np.empty((len(depths), grid.nx))
    for i, depth in enumerate(depths):
        # Same boundary rule as propagate_blocked: a depth at or before the
        # obstacle plane is propagated unmasked.
        if obstacle is None or depth <= obstacle.depth:
            out = _propagate_spectrum(spectrum, grid, depth - aperture.depth, wavelength, apod)
        else:
            out = _propagate_spectrum(masked_spectrum, grid, depth - obstacle.depth,
                                      wavelength, apod)
        np.square(np.abs(out), out=rows[i])
    peak = float(rows.max())
    if peak <= 0:
        raise AirylinkError("field is identically zero; cannot normalize the map")
    # In place on `rows`, in the order 10 * log10(rows / peak) then the
    # floor, so no map-sized temporary is made.
    rows /= peak
    with np.errstate(divide="ignore"):
        np.log10(rows, out=rows)
    rows *= 10.0
    np.maximum(rows, floor_db, out=rows)
    return IntensityMap(
        db=rows,
        depths=tuple(depths),
        peak=peak,
        floor_db=floor_db,
    )
