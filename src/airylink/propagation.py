"""Scalar wave propagation on a 1D transverse grid.

The solver is the FFT angular-spectrum method with the paraxial (Fresnel)
transfer function; the tests check it against a direct O(Nx^2) quadrature
of the Fresnel integral that the package does not ship. Both use the
e^{+j omega t} time convention, so forward propagation carries phase
e^{-j k0 z} and a point source radiates e^{-j k0 (z + x^2/(2z))}.

Transfer function and kernel are a matched pair:

    H(f) = exp(-j k0 z) * exp(+j pi lambda z f^2)
    h(x) = sqrt(j/(lambda z)) * exp(-j k0 z) * exp(-j k0 x^2 / (2 z))

The sign of the quadratic spectral phase and the sqrt(j) prefactor are
forced by three contracts at once: the propagator must be exactly unitary,
must compose as a semigroup, and must agree with the quadrature oracle to
better than 1e-3 -- only this pairing satisfies all three (a conjugated
transfer function or a 1/sqrt(j) prefactor each break one of them).

The knife-edge cascade (propagate to the obstacle plane, zero the blocked
side, propagate on) is one Cascade per grid, wavelength and obstacle, run
forward for fields (intensity_map is its map of many depths) and
transposed for channel rows.

Boundary handling: a super-Gaussian absorber multiplies the field after
every propagation step, eating energy that would otherwise wrap around the
periodic window. Grids with apod_width = 0 disable it (used by the
conservation tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AirylinkError, GridError
from .geometry import ArrayGeometry, GridSpec, KnifeEdgeObstacle

__all__ = [
    "ComplexField",
    "grid_x",
    "grid_fx",
    "embed_aperture",
    "band_limit",
    "Cascade",
    "propagate_angular_spectrum",
    "sample_field_transpose",
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


def element_bins(array: ArrayGeometry, grid: GridSpec) -> np.ndarray:
    """Grid index nearest to each element (ties round to even, as round
    does); raises GridError naming the first element outside the usable
    window."""
    half = grid.interior_half_width
    x = array.element_x()
    outside = np.flatnonzero(np.abs(x) >= half)
    if outside.size:
        idx = int(outside[0])
        raise GridError(
            f"element {idx} at x={x[idx]:.4e} m falls outside the usable window "
            f"(|x| < {half:.4e} m)"
        )
    return np.rint(x / grid.dx).astype(int) + grid.nx // 2


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
    # Unbuffered, so elements that share a bin add up as a loop over them would.
    np.add.at(samples, element_bins(array, grid), w / grid.dx)
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


class Cascade:
    """The knife-edge cascade on one grid at one wavelength behind one
    obstacle (or none). _past_mask is its one rule for which depths the
    mask reaches. fields runs it forward from a launched aperture;
    transpose runs it back to the aperture, launch filter included.

    The launch filter and the mask are built on first use. Only transposed
    legs keep their spectral factors, because channel rows share depths; a
    forward leg builds its transfer function afresh, so a map over many
    distinct depths holds one at a time.
    """

    def __init__(self, grid: GridSpec, wavelength: float,
                 obstacle: KnifeEdgeObstacle | None):
        self.grid, self.wavelength, self.obstacle = grid, wavelength, obstacle
        self._apod = _apodization(grid)
        self._k0 = 2.0 * math.pi / wavelength
        self._spectral = {}

    @cached_property
    def _launch(self) -> np.ndarray:
        return _launch_filter(self.grid, self.wavelength)

    @cached_property
    def _clear(self) -> np.ndarray:
        return _clear_side(self.grid, self.obstacle)

    def _past_mask(self, depth: float) -> bool:
        """Whether the knife edge acts on the field at `depth`: a depth at
        or before the obstacle plane is propagated unmasked."""
        if depth <= 0:
            raise AirylinkError(f"target depth must be positive, got {depth}")
        return self.obstacle is not None and depth > self.obstacle.depth

    def _forward(self, spectrum: np.ndarray, distance: float) -> np.ndarray:
        """One forward leg: the samples at `distance` from a field whose
        FFT is `spectrum`."""
        if distance < 0:
            raise AirylinkError(f"propagation distance must be nonnegative, got {distance}")
        out = np.fft.ifft(spectrum * _transfer_function(self.grid, distance, self.wavelength))
        out *= np.exp(-1j * self._k0 * distance)
        if self._apod is not None:
            out *= self._apod
        return out

    def _backward(self, v: np.ndarray, distance: float, launch: bool) -> np.ndarray:
        """Transpose of one forward leg, times the launch filter for the leg
        that ends at the aperture. ifft(fft(.) * H) transposes to
        fft(ifft(.) * H) because the DFT matrix is symmetric; the phase and
        the absorber are diagonal and transpose to themselves."""
        v = v * np.exp(-1j * self._k0 * distance)
        if self._apod is not None:
            v = v * self._apod
        key = (distance, launch)
        if key not in self._spectral:
            h = _transfer_function(self.grid, distance, self.wavelength)
            self._spectral[key] = h * self._launch if launch else h
        return np.fft.fft(np.fft.ifft(v) * self._spectral[key])

    def fields(self, aperture: ComplexField, depths):
        """Yield the field launched as `aperture` at each of `depths`, one
        at a time. The aperture spectrum is taken once, and so is the
        masked obstacle-plane spectrum when some depth lies past the mask,
        so every depth costs one inverse FFT."""
        spectrum = np.fft.fft(aperture.samples)
        masked = None
        for depth in depths:
            if not self._past_mask(depth):
                out = self._forward(spectrum, depth - aperture.depth)
            else:
                if masked is None:
                    at_edge = self._forward(spectrum, self.obstacle.depth - aperture.depth)
                    masked = np.fft.fft(np.where(self._clear, at_edge, 0.0 + 0.0j))
                out = self._forward(masked, depth - self.obstacle.depth)
            yield ComplexField(out, self.grid, depth)

    def transpose(self, probe: np.ndarray, depth: float) -> np.ndarray:
        """Transpose of the launch cascade, band_limit then fields from
        depth 0 to `depth`, seen as a linear map on the aperture samples.

        `probe` lives on the target plane and the result on the aperture
        plane: for any aperture samples a, probe @ cascade(a) == result @ a.
        The launch filter shares one FFT pair with the first leg.
        """
        v = np.asarray(probe, dtype=complex)
        if not self._past_mask(depth):
            return self._backward(v, depth, launch=True)
        v = self._backward(v, depth - self.obstacle.depth, launch=False)
        v = np.where(self._clear, v, 0.0 + 0.0j)
        return self._backward(v, self.obstacle.depth, launch=True)


def propagate_angular_spectrum(
    field: ComplexField, distance: float, wavelength: float
) -> ComplexField:
    """Fresnel propagation by FFT: transform, multiply by
    exp(-j k0 z) exp(+j pi lambda z f^2), transform back, apodize. One
    unobstructed leg of Cascade."""
    out = Cascade(field.grid, wavelength, None)._forward(np.fft.fft(field.samples), distance)
    return ComplexField(out, field.grid, field.depth + distance)


def _interpolation(grid: GridSpec, x: float) -> tuple[int, float]:
    """Lower sample index and fractional offset of position x."""
    half = grid.interior_half_width
    if abs(x) >= half:
        raise GridError(
            f"sample point x={x:.4e} m outside the usable window (|x| < {half:.4e} m)"
        )
    pos = x / grid.dx + grid.nx // 2
    low = int(math.floor(pos))
    return low, pos - low


def sample_field_transpose(grid: GridSpec, x: float) -> np.ndarray:
    """The row vector of linear interpolation at transverse position x
    (meters): its product with a field's samples is the field at x."""
    low, frac = _interpolation(grid, x)
    probe = np.zeros(grid.nx, dtype=complex)
    probe[low] = 1.0 - frac
    probe[low + 1] = frac
    return probe


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

    One Cascade.fields pass makes every row, one depth at a time.
    """
    depths = [float(d) for d in depths]
    if not depths:
        raise AirylinkError("intensity_map needs at least one depth")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise AirylinkError("depths must be strictly increasing")
    rows = np.empty((len(depths), aperture.grid.nx))
    cascade = Cascade(aperture.grid, wavelength, obstacle)
    for row, field in zip(rows, cascade.fields(aperture, depths)):
        np.square(np.abs(field.samples), out=row)
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
