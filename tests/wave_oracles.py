"""Wave-optics oracles that the package does not ship.

The package propagates with the FFT angular-spectrum method and runs the
knife-edge cascade as one propagation.Cascade. The functions here are the
independent references the tests compare it with; like the package, they
take a field as its samples on a grid and return samples on that grid:

* propagate_direct_fresnel: a direct O(Nx^2) quadrature of the Fresnel
  integral, FFT-free;
* apply_mask: the knife edge as a field operation at the obstacle plane;
* two_stage: the blocked cascade composed from propagate_angular_spectrum
  and apply_mask, the same operations Cascade.fields runs, so it gives
  the same bits;
* sample_field: linear interpolation of a field at one position.
"""

from __future__ import annotations

import math

import numpy as np

from airylink import AirylinkError, GridSpec, KnifeEdgeObstacle, propagate_angular_spectrum
from airylink.propagation import _apodization, _clear_side, _interpolation


def propagate_direct_fresnel(samples, grid: GridSpec, distance: float,
                             wavelength: float) -> np.ndarray:
    """Brute-force quadrature of the Fresnel integral (the testing oracle).

    E(x) = sqrt(j/(lambda z)) e^{-j k0 z} * sum E0(x') e^{-j k0 (x-x')^2/(2z)} dx'

    O(Nx^2) and FFT-free. On a uniform grid the kernel depends only on the
    index difference i - j, so its 2 Nx - 1 distinct values are computed
    once and row i of the kernel is gathered as a contiguous slice of them
    (reversed, so it meets the reversed field); rows go in blocks to bound
    memory. The grid's absorber multiplies the result, as it does every
    propagation step.
    """
    if distance <= 0:
        raise AirylinkError("direct Fresnel quadrature needs distance > 0; use the field as-is for z=0")
    nx = grid.nx
    k0 = 2.0 * math.pi / wavelength
    pref = np.sqrt(1j / (wavelength * distance)) * np.exp(-1j * k0 * distance) * grid.dx
    offsets = np.arange(-(nx - 1), nx) * grid.dx
    # values[m + nx - 1] is the kernel at x_i - x_j = m dx, so row i of the
    # kernel, reversed, is values[i : i + nx].
    values = np.exp(-1j * k0 * offsets**2 / (2.0 * distance))
    rows = np.lib.stride_tricks.sliding_window_view(values, nx)
    reversed_samples = samples[::-1]
    out = np.empty(nx, dtype=complex)
    block = 256
    for start in range(0, nx, block):
        stop = min(start + block, nx)
        out[start:stop] = np.ascontiguousarray(rows[start:stop]) @ reversed_samples
    out *= pref
    apod = _apodization(grid)
    if apod is not None:
        out = out * apod
    return out


def apply_mask(samples, grid: GridSpec, obstacle: KnifeEdgeObstacle) -> np.ndarray:
    """Zero the blocked half-line (edge bin included) of a field on the
    obstacle plane."""
    return np.where(_clear_side(grid, obstacle), samples, 0.0 + 0.0j)


def two_stage(aperture, grid: GridSpec, obstacle: KnifeEdgeObstacle | None, depth: float,
              wavelength: float) -> np.ndarray:
    """The field at `depth` of an aperture on the array plane: propagate to
    the obstacle plane, mask, and propagate on; one unmasked leg without an
    obstacle or at a depth on or before its plane."""
    if obstacle is None or depth <= obstacle.depth:
        return propagate_angular_spectrum(aperture, grid, depth, wavelength)
    at_edge = propagate_angular_spectrum(aperture, grid, obstacle.depth, wavelength)
    return propagate_angular_spectrum(apply_mask(at_edge, grid, obstacle), grid,
                                      depth - obstacle.depth, wavelength)


def sample_field(samples, grid: GridSpec, x: float) -> complex:
    """Linear interpolation of a field at transverse position x (meters)."""
    low, frac = _interpolation(grid, x)
    return complex((1.0 - frac) * samples[low] + frac * samples[low + 1])
