"""Scenario configuration files.

The format is flat sections-and-keys text::

    [carrier]
    frequency_ghz = 28

    [array]
    n = 64
    spacing_lambda = 0.49

    [users]
    x = -5
    z = 250
    unit = lambda
    x = 3.5
    z = 300
    unit = lambda

    [obstacle]            # optional section; lengths in meters
    z = 1.606031
    edge_x = 0.0
    blocked_side = below_edge

    [link]
    noise_power = 1e-3
    tx_power = 1.0
    rzf_epsilon = 1e-10

    [grid]
    nx = 4096
    window_lambda = 256
    apodization_width_lambda = 25.6

Within [users] the keys repeat, one group per user; a new ``x`` starts the
next user. ``unit`` may be ``m``/``meters`` or ``lambda`` and applies to that
user's coordinates (default meters). configparser cannot express repeated
keys, hence the small hand parser here.

Unknown sections or keys are load errors: a typo must fail loudly rather
than silently fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, GridError
from .geometry import (
    ArrayGeometry,
    BlockedSide,
    Carrier,
    GridSpec,
    KnifeEdgeObstacle,
    ScenarioConfig,
    UserPosition,
)

_KNOWN_KEYS = {
    "carrier": {"frequency_ghz"},
    "array": {"n", "spacing_lambda"},
    "users": {"x", "z", "unit"},
    "obstacle": {"z", "edge_x", "blocked_side"},
    "link": {"noise_power", "tx_power", "rzf_epsilon"},
    "grid": {"nx", "window_lambda", "apodization_width_lambda"},
}
_REQUIRED_SECTIONS = ("carrier", "array", "users", "link", "grid")


@dataclass
class _Pair:
    key: str
    value: str
    line: int


def _tokenize(text: str) -> dict[str, list[_Pair]]:
    """Split config text into sections preserving key order and repeats."""
    sections: dict[str, list[_Pair]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        sections[current].append(_Pair(key, value, lineno))
    return sections


def _as_float(pair: _Pair) -> float:
    try:
        value = float(pair.value)
    except ValueError:
        raise ConfigError(f"line {pair.line}: {pair.key} must be a number, got {pair.value!r}") from None
    # The range checks downstream compare with <= 0, which NaN passes.
    if not math.isfinite(value):
        raise ConfigError(f"line {pair.line}: {pair.key} must be finite, got {pair.value!r}")
    return value


def _as_int(pair: _Pair) -> int:
    try:
        return int(pair.value)
    except ValueError:
        raise ConfigError(f"line {pair.line}: {pair.key} must be an integer, got {pair.value!r}") from None


def _single_valued(pairs: list[_Pair], section: str) -> dict[str, _Pair]:
    seen: dict[str, _Pair] = {}
    for p in pairs:
        if p.key in seen:
            raise ConfigError(f"line {p.line}: duplicate key {p.key!r} in section [{section}]")
        seen[p.key] = p
    return seen


def _parse_users(pairs: list[_Pair], wavelength: float) -> tuple[UserPosition, ...]:
    groups: list[dict[str, _Pair]] = []
    for p in pairs:
        if p.key == "x":
            groups.append({})
        elif not groups:
            raise ConfigError(f"line {p.line}: user entries must start with 'x'")
        if p.key in groups[-1]:
            raise ConfigError(f"line {p.line}: repeated {p.key!r} before a new user 'x'")
        groups[-1][p.key] = p

    users = []
    for i, group in enumerate(groups, start=1):
        if "x" not in group or "z" not in group:
            raise ConfigError(f"user #{i} needs both x and z")
        unit = group["unit"].value.strip().lower() if "unit" in group else "m"
        if unit in ("m", "meter", "meters"):
            scale = 1.0
        elif unit == "lambda":
            scale = wavelength
        else:
            raise ConfigError(f"line {group['unit'].line}: unit must be 'm' or 'lambda', got {unit!r}")
        users.append(
            UserPosition(
                x=_as_float(group["x"]) * scale,
                z=_as_float(group["z"]) * scale,
                label=f"ue{i}",
            )
        )
    return tuple(users)


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario config text into a validated ScenarioConfig."""
    sections = _tokenize(text)
    missing = [s for s in _REQUIRED_SECTIONS if s not in sections]
    if missing:
        raise ConfigError(f"missing required section(s): {', '.join(missing)}")

    carrier_kv = _single_valued(sections["carrier"], "carrier")
    if "frequency_ghz" not in carrier_kv:
        raise ConfigError("[carrier] needs frequency_ghz")
    carrier = Carrier(frequency_hz=_as_float(carrier_kv["frequency_ghz"]) * 1e9)
    lam = carrier.wavelength

    array_kv = _single_valued(sections["array"], "array")
    for req in ("n", "spacing_lambda"):
        if req not in array_kv:
            raise ConfigError(f"[array] needs {req}")
    array = ArrayGeometry(
        n=_as_int(array_kv["n"]),
        spacing=_as_float(array_kv["spacing_lambda"]) * lam,
    )

    users = _parse_users(sections["users"], lam)
    if not users:
        raise ConfigError("[users] defines no users")

    obstacle = None
    if "obstacle" in sections:
        obs_kv = _single_valued(sections["obstacle"], "obstacle")
        if "z" not in obs_kv:
            raise ConfigError("[obstacle] needs z (meters)")
        side = obs_kv["blocked_side"].value.strip().lower() if "blocked_side" in obs_kv else BlockedSide.BELOW_EDGE
        obstacle = KnifeEdgeObstacle(
            depth=_as_float(obs_kv["z"]),
            edge_x=_as_float(obs_kv["edge_x"]) if "edge_x" in obs_kv else 0.0,
            blocked_side=side,
        )

    link_kv = _single_valued(sections["link"], "link")
    noise_power = _as_float(link_kv["noise_power"]) if "noise_power" in link_kv else 1e-3
    tx_power = _as_float(link_kv["tx_power"]) if "tx_power" in link_kv else 1.0
    rzf_epsilon = _as_float(link_kv["rzf_epsilon"]) if "rzf_epsilon" in link_kv else 1e-10

    grid_kv = _single_valued(sections["grid"], "grid")
    nx = _as_int(grid_kv["nx"]) if "nx" in grid_kv else 4096
    window = (_as_float(grid_kv["window_lambda"]) if "window_lambda" in grid_kv else 256.0) * lam
    apod = (
        _as_float(grid_kv["apodization_width_lambda"])
        if "apodization_width_lambda" in grid_kv
        else 0.1 * window / lam
    ) * lam
    grid = GridSpec(nx=nx, window=window, apod_width=apod)

    scenario = ScenarioConfig(
        carrier=carrier,
        array=array,
        users=users,
        grid=grid,
        obstacle=obstacle,
        noise_power=noise_power,
        tx_power=tx_power,
        rzf_epsilon=rzf_epsilon,
    )
    validate_scenario(scenario)
    return scenario


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario_text(text)


def validate_scenario(scenario: ScenarioConfig) -> None:
    """Sampling and geometry checks that must hold before any physics runs.

    Raises GridError with a specific message on the first violation.
    """
    lam = scenario.carrier.wavelength
    grid = scenario.grid
    if grid.dx > lam / 4 + 1e-15:
        raise GridError(
            f"grid spacing {grid.dx:.3e} m exceeds lambda/4 = {lam / 4:.3e} m; "
            f"raise nx or shrink the window"
        )
    if grid.window < 4 * scenario.array.aperture:
        raise GridError(
            f"window {grid.window:.3e} m is narrower than 4x the array aperture "
            f"{scenario.array.aperture:.3e} m"
        )
    half = grid.interior_half_width
    for idx, ex in enumerate(scenario.array.element_x()):
        if abs(ex) >= half:
            raise GridError(f"array element {idx} at x={ex:.3e} m lies in the absorbing border")
    for user in scenario.users:
        if abs(user.x) >= half:
            raise GridError(f"user {user.label!r} at x={user.x:.3e} m lies in the absorbing border")
    if scenario.obstacle is not None:
        for user in scenario.users:
            if user.z == scenario.obstacle.depth:
                raise GridError(f"user {user.label!r} sits exactly on the obstacle plane")

    _check_phase_sampling(scenario)


def _check_phase_sampling(scenario: ScenarioConfig) -> None:
    """Steepest-codebook-entry check: the per-sample phase step of any beam
    this scenario can generate must stay below pi, or the grid undersamples
    the aperture phase."""
    k0 = scenario.carrier.wavenumber
    dx = scenario.grid.dx
    half_aperture = 0.5 * scenario.array.aperture

    steepest = 0.0
    for user in scenario.users:
        # Traditional focusing phase k0*r(x): steepest at the aperture edge
        # facing away from the user.
        for edge in (-half_aperture, half_aperture):
            r = math.hypot(edge - user.x, user.z)
            slope = k0 * abs(edge - user.x) / r
            steepest = max(steepest, slope)
    step = steepest * dx
    if step >= math.pi:
        raise GridError(
            f"per-sample phase step {step:.3f} rad of the steepest focusing beam "
            f"reaches pi; the grid undersamples the aperture phase"
        )
