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
than silently fall back to a default. The sampling rules (GridError) are
ScenarioConfig's own, checked on every build, loaded or derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import (
    ArrayGeometry,
    Carrier,
    GridSpec,
    KnifeEdgeObstacle,
    ScenarioConfig,
    UserPosition,
)

# Section -> key -> type: the only keys a file may set. Text values are
# case-folded; [users] repeats its keys once per user.
_KEYS = {
    "carrier": {"frequency_ghz": float},
    "array": {"n": int, "spacing_lambda": float},
    "users": {"x": float, "z": float, "unit": str},
    "obstacle": {"z": float, "edge_x": float, "blocked_side": str},
    "link": {"noise_power": float, "tx_power": float, "rzf_epsilon": float},
    "grid": {"nx": int, "window_lambda": float, "apodization_width_lambda": float},
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
            if name not in _KEYS:
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
        if key not in _KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        sections[current].append(_Pair(key, value, lineno))
    return sections


def _convert(section: str, pair: _Pair) -> float | int | str:
    kind = _KEYS[section][pair.key]
    if kind is str:
        return pair.value.lower()
    try:
        value = kind(pair.value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {pair.line}: {pair.key} must be {noun}, got {pair.value!r}") from None
    # The range checks downstream compare with <= 0, which NaN passes.
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"line {pair.line}: {pair.key} must be finite, got {pair.value!r}")
    return value


def _single_valued(pairs: list[_Pair], section: str) -> dict[str, float | int | str]:
    seen: dict[str, float | int | str] = {}
    for p in pairs:
        if p.key in seen:
            raise ConfigError(f"line {p.line}: duplicate key {p.key!r} in section [{section}]")
        seen[p.key] = _convert(section, p)
    return seen


def _require(values: dict, section: str, *keys: str, note: str = "") -> None:
    for key in keys:
        if key not in values:
            raise ConfigError(f"[{section}] needs {key}{note}")


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
        unit = _convert("users", group["unit"]) if "unit" in group else "m"
        if unit in ("m", "meter", "meters"):
            scale = 1.0
        elif unit == "lambda":
            scale = wavelength
        else:
            raise ConfigError(f"line {group['unit'].line}: unit must be 'm' or 'lambda', got {unit!r}")
        users.append(
            UserPosition(
                x=_convert("users", group["x"]) * scale,
                z=_convert("users", group["z"]) * scale,
                label=f"ue{i}",
            )
        )
    return tuple(users)


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario config text into a ScenarioConfig (which checks itself)."""
    sections = _tokenize(text)
    missing = [s for s in _REQUIRED_SECTIONS if s not in sections]
    if missing:
        raise ConfigError(f"missing required section(s): {', '.join(missing)}")
    kv = {name: _single_valued(pairs, name) for name, pairs in sections.items() if name != "users"}

    _require(kv["carrier"], "carrier", "frequency_ghz")
    carrier = Carrier(frequency_hz=kv["carrier"]["frequency_ghz"] * 1e9)
    lam = carrier.wavelength

    _require(kv["array"], "array", "n", "spacing_lambda")
    array = ArrayGeometry(n=kv["array"]["n"], spacing=kv["array"]["spacing_lambda"] * lam)

    users = _parse_users(sections["users"], lam)
    if not users:
        raise ConfigError("[users] defines no users")

    obstacle = None
    if "obstacle" in kv:
        obs = kv["obstacle"]
        _require(obs, "obstacle", "z", note=" (meters)")
        obstacle = KnifeEdgeObstacle(depth=obs.pop("z"), **obs)

    grid_kv = kv["grid"]
    window = grid_kv.get("window_lambda", 256.0) * lam
    apod = grid_kv.get("apodization_width_lambda", 0.1 * window / lam) * lam
    grid = GridSpec(nx=grid_kv.get("nx", 4096), window=window, apod_width=apod)

    return ScenarioConfig(
        carrier=carrier, array=array, users=users, grid=grid, obstacle=obstacle, **kv["link"]
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    return parse_scenario_text(text)
