"""Wave-optics oracles that the package does not ship.

The package propagates with the FFT angular-spectrum method and runs the
knife-edge cascade as one propagation.Cascade. The functions here are the
independent references the tests compare it with:

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

from airylink import AirylinkError, ComplexField, KnifeEdgeObstacle, propagate_angular_spectrum
from airylink.propagation import _apodization, _clear_side, _interpolation


def propagate_direct_fresnel(
    field: ComplexField, distance: float, wavelength: float
) -> ComplexField:
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


def two_stage(aperture: ComplexField, obstacle: KnifeEdgeObstacle | None, depth: float,
              wavelength: float) -> ComplexField:
    """The field at `depth`: propagate to the obstacle plane, mask, and
    propagate on; one unmasked leg without an obstacle or at a depth on or
    before its plane."""
    if obstacle is None or depth <= obstacle.depth:
        return propagate_angular_spectrum(aperture, depth - aperture.depth, wavelength)
    at_edge = propagate_angular_spectrum(aperture, obstacle.depth - aperture.depth, wavelength)
    return propagate_angular_spectrum(apply_mask(at_edge, obstacle), depth - obstacle.depth,
                                      wavelength)


def sample_field(field: ComplexField, x: float) -> complex:
    """Linear interpolation of the field at transverse position x (meters)."""
    low, frac = _interpolation(field.grid, x)
    s = field.samples
    return complex((1.0 - frac) * s[low] + frac * s[low + 1])
