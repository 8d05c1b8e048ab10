"""Seeded scenario files for the benchmark.

The three templates are the bundled `configs/*.cfg` with the user
positions left as placeholders. Seed 0 fills in the bundled positions, so
its text equals the bundled files byte for byte. Any other seed jitters
each user within a small box (wavelength units) chosen so that every
user keeps its role against the knife edge (shadowed or lit) and the
mixed-scenario search stays feasible.
"""

from __future__ import annotations

import random

# Knife edge shared by the obstructed templates: depth in wavelengths
# (1.606031025 m at 28 GHz), edge at x = 0, blocking x <= 0.
_OBSTACLE_Z_LAMBDA = 150.0

_HEAD = """[carrier]
frequency_ghz = 28

[array]
n = 64
spacing_lambda = 0.49

[users]
x = {x1}
z = {z1}
unit = lambda
x = {x2}
z = {z2}
unit = lambda
"""

_OBSTACLE = """
[obstacle]
# meters; 1.606031025 m is 150 wavelengths at 28 GHz
z = 1.606031025
edge_x = 0.0
blocked_side = below_edge
"""

_TAIL = """
[link]
noise_power = 1e-3
tx_power = 1.0e4
rzf_epsilon = 1e-10

[grid]
nx = 4096
window_lambda = 256
apodization_width_lambda = 25.6
"""

_TEMPLATES = {
    "baseline": (
        "# Free-space two-user scenario: user 2 is scanned laterally at its depth\n"
        "# by `airylink baseline`, so its x here is only the nominal position.\n\n"
        + _HEAD + _TAIL
    ),
    "shadow": (
        "# Obstructed two-user scenario: a knife edge at ~150 wavelengths depth\n"
        "# blocks everything at x <= 0, putting both users in its shadow. User 2 is\n"
        "# scanned from deep shadow toward the lit edge by `airylink shadow`.\n\n"
        + _HEAD + _OBSTACLE + _TAIL
    ),
    "mixed": (
        "# Mixed scenario: user 1 sits in the knife edge's shadow, user 2 has clear\n"
        "# line of sight. Used by `airylink mixed-opt` (curved-beam parameter\n"
        "# search) and `airylink robustness` (positioning-error sweep).\n\n"
        + _HEAD + _OBSTACLE + _TAIL
    ),
}

# Bundled positions (seed 0), as the strings the bundled files spell.
_BUNDLED = {
    "baseline": (("-5", "250"), ("10", "300")),
    "shadow": (("-5", "250"), ("-10", "300")),
    "mixed": (("-5", "250"), ("3.5", "300")),
}

# Half-widths of the jitter box around each bundled position, in
# wavelengths: (dx, dz). At +/-0.5 in x and +/-5 in z the shadowed users'
# rays cross the obstacle plane at x in [-3.4, -2.6] and [-5.4, -4.6]
# and the lit mixed user's at x in [1.4, 2.1], so no role flips.
_JITTER = (0.5, 5.0)

# Expected role of each user against the knife edge, per template.
_ROLES = {
    "baseline": (None, None),
    "shadow": ("shadowed", "shadowed"),
    "mixed": ("shadowed", "lit"),
}


def _role(x: float, z: float) -> str:
    """Straight ray from the array centre: blocked where it crosses the
    obstacle plane at x <= 0 (the edge sample is blocked too)."""
    return "shadowed" if x * _OBSTACLE_Z_LAMBDA / z <= 0.0 else "lit"


def scenario_texts(seed: int) -> dict:
    """Config text per scenario name ('baseline', 'shadow', 'mixed')."""
    rng = random.Random(seed)
    texts = {}
    for name, template in _TEMPLATES.items():
        users = []
        for (x, z), role in zip(_BUNDLED[name], _ROLES[name]):
            if seed != 0:
                x = f"{float(x) + rng.uniform(-_JITTER[0], _JITTER[0]):.4f}"
                z = f"{float(z) + rng.uniform(-_JITTER[1], _JITTER[1]):.4f}"
            if role is not None and _role(float(x), float(z)) != role:
                raise ValueError(f"seed {seed}: {name} user at ({x}, {z}) is not {role}")
            users.append((x, z))
        (x1, z1), (x2, z2) = users
        texts[name] = template.format(x1=x1, z1=z1, x2=x2, z2=z2)
    return texts
