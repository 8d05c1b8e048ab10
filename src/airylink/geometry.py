"""Scene geometry: carrier, array lattice, users, obstacle, scenario.

All lengths are stored in meters internally. Config files may give
positions in wavelength units; conversion happens at load time
(see airylink.config), never inside the physics.

Coordinates: the array occupies the z = 0 plane along the x axis; users
live at (x, z) with z > 0 the propagation depth. A knife-edge obstacle
is a half-plane at a fixed depth that blocks one side of the x axis,
edge included.

Each rule is checked once, where its object is built: every type checks
its own fields (ConfigError), and ScenarioConfig the cross-field sampling
rules (GridError), so a derived scenario meets the loader's rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GridError

SPEED_OF_LIGHT = 299_792_458.0


def _require_finite(obj, *names) -> None:
    """Raise ConfigError for the first named float field of `obj` that is
    NaN or infinite; the range checks compare with <= 0, which NaN passes."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{type(obj).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class Carrier:
    """Carrier frequency in Hz, with derived wavelength and wavenumber."""

    frequency_hz: float

    def __post_init__(self):
        _require_finite(self, "frequency_hz")
        if self.frequency_hz <= 0:
            raise ConfigError(f"carrier frequency must be positive, got {self.frequency_hz}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of n elements with given spacing (meters),
    centered on the origin: x_i = (i - (n+1)/2) * spacing for i = 1..n."""

    n: int
    spacing: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"array needs at least one element, got n={self.n}")
        _require_finite(self, "spacing")
        if self.spacing <= 0:
            raise ConfigError(f"element spacing must be positive, got {self.spacing}")
        c = 0.5 * (self.n + 1)
        xs = np.array([(i - c) * self.spacing for i in range(1, self.n + 1)], dtype=float)
        xs.flags.writeable = False
        object.__setattr__(self, "_element_x", xs)

    def element_x(self) -> np.ndarray:
        """Element x coordinates in meters, symmetric about 0 (sum is exactly
        0), as one read-only float64 array built once per geometry."""
        return self._element_x

    @property
    def aperture(self) -> float:
        """Aperture size D = n * spacing."""
        return self.n * self.spacing


@dataclass(frozen=True)
class UserPosition:
    x: float
    z: float
    label: str = ""

    def __post_init__(self):
        _require_finite(self, "x", "z")
        if self.z <= 0:
            raise ConfigError(f"user depth must be positive, got z={self.z} ({self.label!r})")


class BlockedSide:
    """Which half-line of the obstacle plane is opaque."""

    BELOW_EDGE = "below_edge"  # x <= edge_x blocked
    ABOVE_EDGE = "above_edge"  # x >= edge_x blocked


@dataclass(frozen=True)
class KnifeEdgeObstacle:
    """Opaque half-plane at depth z = depth, blocking one side of edge_x
    inclusive of the edge itself."""

    depth: float
    edge_x: float = 0.0
    blocked_side: str = BlockedSide.BELOW_EDGE

    def __post_init__(self):
        _require_finite(self, "depth", "edge_x")
        if self.depth <= 0:
            raise ConfigError(f"obstacle depth must be positive, got {self.depth}")
        if self.blocked_side not in (BlockedSide.BELOW_EDGE, BlockedSide.ABOVE_EDGE):
            raise ConfigError(f"unknown blocked_side {self.blocked_side!r}")

    def blocks(self, x):
        """True where the mask is opaque (edge included). x is a scalar or
        an array of transverse positions; an array gives a boolean array,
        compared element by element."""
        if self.blocked_side == BlockedSide.BELOW_EDGE:
            return x <= self.edge_x
        return x >= self.edge_x


@dataclass(frozen=True)
class GridSpec:
    """Transverse sampling grid for the wave-optics solver.

    nx          -- number of samples, a power of two
    window      -- physical width of the simulated strip in meters
    apod_width  -- width of the absorbing border on each side, meters
    """

    nx: int
    window: float
    apod_width: float

    def __post_init__(self):
        if self.nx < 2 or (self.nx & (self.nx - 1)) != 0:
            raise ConfigError(f"nx must be a power of two >= 2, got {self.nx}")
        _require_finite(self, "window", "apod_width")
        if self.window <= 0:
            raise ConfigError(f"window must be positive, got {self.window}")
        if not (0 <= self.apod_width < 0.5 * self.window):
            raise ConfigError(
                f"apodization width must lie in [0, window/2), got {self.apod_width}"
            )
        fx2 = np.fft.fftfreq(self.nx, d=self.dx)[: self.nx // 2 + 1] ** 2
        fx2.flags.writeable = False
        object.__setattr__(self, "_half_band_fx2", fx2)

    @property
    def dx(self) -> float:
        return self.window / self.nx

    def half_band_fx2(self) -> np.ndarray:
        """Squared spatial frequencies of FFT bins 0..nx/2 in numpy's FFT
        ordering, as one read-only float64 array built once per grid. Bin
        nx - k has the same squared frequency as bin k, bit for bit."""
        return self._half_band_fx2

    @property
    def interior_half_width(self) -> float:
        """Half-width of the usable region (window minus the absorbing border)."""
        return 0.5 * self.window - self.apod_width


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete immutable description of one simulation scenario.

    Every build (the loader's, with_users, without_obstacle, replace)
    raises GridError on the first broken rule: dx <= lambda/4, window >= 4x
    the aperture, every element and user inside the usable half-width, no
    user on the obstacle plane. dx <= lambda/4 also samples every focusing
    beam: k0 r has slope k0 |x_e - x_u| / r < k0, a step below k0 dx <= pi/2
    per sample. Cubic beams are flagged instead (beams.airy_local_sine).
    """

    carrier: Carrier
    array: ArrayGeometry
    users: tuple[UserPosition, ...]
    grid: GridSpec
    obstacle: KnifeEdgeObstacle | None = None
    noise_power: float = 1e-3
    tx_power: float = 1.0
    rzf_epsilon: float = 1e-10

    def __post_init__(self):
        if len(self.users) < 1:
            raise ConfigError("scenario needs at least one user")
        _require_finite(self, "noise_power", "tx_power", "rzf_epsilon")
        if self.noise_power <= 0 or self.tx_power <= 0:
            raise ConfigError("noise_power and tx_power must be positive")
        if self.rzf_epsilon < 0:
            raise ConfigError("rzf_epsilon must be nonnegative")
        lam, grid = self.carrier.wavelength, self.grid
        if grid.dx > lam / 4 + 1e-15:
            raise GridError(f"grid spacing {grid.dx:.3e} m exceeds lambda/4 = {lam / 4:.3e} m; "
                            f"raise nx or shrink the window")
        if grid.window < 4 * self.array.aperture:
            raise GridError(f"window {grid.window:.3e} m is narrower than 4x the array aperture "
                            f"{self.array.aperture:.3e} m")
        half = grid.interior_half_width
        for idx, ex in enumerate(self.array.element_x().tolist()):
            if abs(ex) >= half:
                raise GridError(f"array element {idx} at x={ex:.3e} m lies in the absorbing border")
        for user in self.users:
            if abs(user.x) >= half:
                raise GridError(f"user {user.label!r} at x={user.x:.3e} m lies in the absorbing border")
        for user in self.users:
            if self.obstacle is not None and user.z == self.obstacle.depth:
                raise GridError(f"user {user.label!r} sits exactly on the obstacle plane")

    @property
    def k(self) -> int:
        return len(self.users)

    def with_users(self, users: tuple[UserPosition, ...]) -> "ScenarioConfig":
        """Copy of this scenario with a different user list."""
        return replace(self, users=users)

    def without_obstacle(self) -> "ScenarioConfig":
        """Copy of this scenario with the obstacle removed (free space)."""
        return replace(self, obstacle=None)


def fraunhofer_distance(array: ArrayGeometry, carrier: Carrier) -> float:
    """Far-field boundary 2 D^2 / lambda with D = n * spacing."""
    d = array.aperture
    return 2.0 * d * d / carrier.wavelength


def geometric_angle(user: UserPosition) -> float:
    """Launch angle toward a user, atan2(x, z): negative x gives a negative angle."""
    return math.atan2(user.x, user.z)


def classify_user(user: UserPosition, obstacle: KnifeEdgeObstacle) -> str:
    """Classify a user as 'shadowed' or 'bright' by the straight ray from the
    array center (0, 0) to the user. Users at or before the obstacle depth are
    always bright (nothing stands between them and the aperture)."""
    if user.z <= obstacle.depth:
        return "bright"
    x_at_obstacle = user.x * (obstacle.depth / user.z)
    return "shadowed" if obstacle.blocks(x_at_obstacle) else "bright"
