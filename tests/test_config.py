"""Config parsing and the scenario rules, which every ScenarioConfig
build checks, loaded or derived."""

import itertools
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from airylink import (
    ConfigError,
    GridError,
    UserPosition,
    config,
    load_scenario,
    parse_scenario_text,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOOD = """
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

[obstacle]
z = 1.606031025
edge_x = 0.0
blocked_side = below_edge

[link]
noise_power = 1e-3
tx_power = 1.0e4
rzf_epsilon = 1e-10

[grid]
nx = 4096
window_lambda = 256
apodization_width_lambda = 25.6
"""


def test_parse_full_scenario():
    s = parse_scenario_text(GOOD)
    lam = s.carrier.wavelength
    assert s.carrier.frequency_hz == 28e9
    assert s.array.n == 64
    assert s.array.spacing == pytest.approx(0.49 * lam, rel=1e-12)
    assert s.k == 2
    assert s.users[0].x == pytest.approx(-5 * lam, rel=1e-12)
    assert s.users[0].z == pytest.approx(250 * lam, rel=1e-12)
    assert s.users[0].label == "ue1"
    assert s.users[1].label == "ue2"
    assert s.obstacle is not None
    assert s.obstacle.depth == pytest.approx(150 * lam, rel=1e-8)
    assert s.obstacle.blocked_side == "below_edge"
    assert s.noise_power == 1e-3
    assert s.tx_power == 1.0e4
    assert s.rzf_epsilon == 1e-10
    assert s.grid.nx == 4096
    assert s.grid.window == pytest.approx(256 * lam, rel=1e-12)
    assert s.grid.apod_width == pytest.approx(25.6 * lam, rel=1e-12)


def test_parse_is_deterministic():
    assert parse_scenario_text(GOOD) == parse_scenario_text(GOOD)


def test_obstacle_section_is_optional():
    text = GOOD.replace("[obstacle]", "#[obstacle]")
    # Commenting the header leaves its keys orphaned; drop them too.
    lines = [l for l in text.splitlines()
             if not l.startswith(("z = 1.6", "edge_x", "blocked_side"))]
    s = parse_scenario_text("\n".join(lines))
    assert s.obstacle is None


def test_user_positions_in_meters():
    text = GOOD.replace("x = -5\nz = 250\nunit = lambda",
                        "x = -0.05\nz = 2.5\nunit = m", 1)
    s = parse_scenario_text(text)
    assert s.users[0].x == -0.05
    assert s.users[0].z == 2.5


def test_comments_and_blank_lines_ignored():
    s = parse_scenario_text(GOOD.replace("n = 64", "n = 64   # elements"))
    assert s.array.n == 64


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (("[grid]", "[mesh]"), "unknown section"),
        (("nx = 4096", "nx = 4096\nnq = 2"), "unknown key"),
        (("[array]\nn = 64", "[array]\nn = 64\nn = 32"), "duplicate key"),
        (("frequency_ghz = 28", "frequency_ghz = abc"), "must be a number"),
        (("n = 64", "n = 64.5"), "must be an integer"),
        (("nx = 4096", "nx ="), "empty value"),
        (("unit = lambda", "unit = feet"), "unit must be"),
        (("unit = lambda", "unit = lambda\nz = 260"), "repeated 'z' before a new user"),
        (("frequency_ghz = 28", ""), r"^\[carrier\] needs frequency_ghz$"),
        (("[array]\nn = 64", "[array]"), r"^\[array\] needs n$"),
        (("spacing_lambda = 0.49", ""), r"^\[array\] needs spacing_lambda$"),
        (("z = 1.606031025", ""), r"^\[obstacle\] needs z \(meters\)$"),
        (("x = -5\nz = 250\nunit = lambda\nx = 3.5\nz = 300\nunit = lambda", ""),
         r"^\[users\] defines no users$"),
    ],
)
def test_malformed_configs_fail_loudly(mutation, fragment):
    old, new = mutation
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario_text(GOOD.replace(old, new, 1))


# Every float-valued line of GOOD, once each (the [users] x and z of the
# first user and the [obstacle] z stand for their repeated keys).
FLOAT_LINES = ["frequency_ghz = 28", "spacing_lambda = 0.49", "x = -5", "z = 250",
               "z = 1.606031025", "edge_x = 0.0", "noise_power = 1e-3",
               "tx_power = 1.0e4", "rzf_epsilon = 1e-10", "window_lambda = 256",
               "apodization_width_lambda = 25.6"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
@pytest.mark.parametrize("line", FLOAT_LINES)
def test_non_finite_numbers_rejected_with_their_line(line, value):
    """The range checks after parsing compare with <= 0, which NaN passes;
    a non-finite value must fail where it is written."""
    key = line.split(" = ")[0]
    lineno = GOOD.splitlines().index(line) + 1
    with pytest.raises(ConfigError, match=f"^line {lineno}: {key} must be finite"):
        parse_scenario_text(GOOD.replace(line, f"{key} = {value}", 1))


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_scenario_text(GOOD + "\n[carrier]\nfrequency_ghz = 30\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_scenario_text("nx = 512\n" + GOOD)


def test_missing_required_section():
    text = "\n".join(l for l in GOOD.splitlines() if l not in ("[link]",
                     "noise_power = 1e-3", "tx_power = 1.0e4", "rzf_epsilon = 1e-10"))
    with pytest.raises(ConfigError, match="missing required section"):
        parse_scenario_text(text)


def test_file_that_is_not_utf8_is_a_config_error(tmp_path):
    junk = tmp_path / "junk.cfg"
    junk.write_bytes(b"[carrier]\nfrequency_ghz = 28\xff\n")
    with pytest.raises(ConfigError, match="cannot read scenario file .*junk.cfg"):
        load_scenario(str(junk))


def test_user_group_must_start_with_x():
    with pytest.raises(ConfigError, match="must start with 'x'"):
        parse_scenario_text(GOOD.replace("x = -5\nz = 250", "z = 250\nx = -5", 1))


def test_user_needs_both_coordinates():
    with pytest.raises(ConfigError, match="needs both x and z"):
        parse_scenario_text(GOOD.replace("z = 300\n", "", 1))


def test_link_defaults_apply():
    text = GOOD.replace("noise_power = 1e-3\n", "").replace(
        "tx_power = 1.0e4\n", "").replace("rzf_epsilon = 1e-10\n", "")
    s = parse_scenario_text(text)
    assert s.noise_power == 1e-3
    assert s.tx_power == 1.0
    assert s.rzf_epsilon == 1e-10


def test_grid_defaults_apply():
    text = GOOD.replace("nx = 4096\n", "").replace("window_lambda = 256\n", "").replace(
        "apodization_width_lambda = 25.6\n", "")
    s = parse_scenario_text(text)
    lam = s.carrier.wavelength
    assert s.grid.nx == 4096
    assert s.grid.window == 256.0 * lam
    # default absorber width: a tenth of the window per side, in wavelengths
    # and then back to meters, bit for bit
    assert s.grid.apod_width == (0.1 * s.grid.window / lam) * lam
    assert s.grid.apod_width == pytest.approx(0.1 * s.grid.window, rel=1e-12)


def test_blocked_side_is_case_folded():
    s = parse_scenario_text(GOOD.replace("blocked_side = below_edge", "blocked_side = ABOVE_EDGE"))
    assert s.obstacle.blocked_side == "above_edge"


def documented_example() -> str:
    """The indented scenario file that airylink.config's docstring shows."""
    lines = config.__doc__.split("::\n", 1)[1].splitlines()
    block = itertools.takewhile(lambda line: not line or line.startswith("    "), lines)
    return textwrap.dedent("\n".join(block))


def test_documented_format_parses_and_spells_every_key():
    """The docstring is the format's reference: its example parses, and it
    names every (section, key) pair the parser accepts, no more."""
    example = documented_example()
    s = parse_scenario_text(example)
    assert s.k == 2 and s.obstacle is not None
    spelled, section = set(), None
    for line in example.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            spelled.add((section, line.split("=", 1)[0].strip()))
    assert spelled == {(name, key) for name, keys in config._KEYS.items() for key in keys}


class TestValidation:
    def test_undersampled_grid_rejected(self):
        # nx = 512 over 256 wavelengths -> dx = lambda/2 > lambda/4
        with pytest.raises(GridError, match="exceeds lambda/4"):
            parse_scenario_text(GOOD.replace("nx = 4096", "nx = 512"))

    def test_window_narrower_than_four_apertures_rejected(self):
        with pytest.raises(GridError, match="narrower than 4x"):
            parse_scenario_text(GOOD.replace("window_lambda = 256",
                                             "window_lambda = 100"))

    def test_user_in_absorbing_border_rejected(self):
        # interior half-width is 102.4 lambda
        with pytest.raises(GridError, match="absorbing border"):
            parse_scenario_text(GOOD.replace("x = 3.5", "x = 110"))

    def test_user_on_obstacle_plane_rejected(self):
        lam = 299792458.0 / 28e9
        bad = GOOD.replace(
            "x = 3.5\nz = 300\nunit = lambda",
            f"x = {3.5 * lam}\nz = {150 * lam}\nunit = m",
        ).replace("z = 1.606031025", f"z = {150 * lam}")
        with pytest.raises(GridError, match="obstacle plane"):
            parse_scenario_text(bad)


def loader_message(text: str) -> str:
    with pytest.raises(GridError) as exc:
        parse_scenario_text(text)
    return str(exc.value)


class TestRulesOnEveryBuild:
    """A scenario the program derives from a loaded one meets the loader's
    rules, with the loader's message: a sweep's with_users and --nx's
    replace build their copies through ScenarioConfig too."""

    MIXED = (CONFIG_DIR / "mixed.cfg").read_text()
    SECOND_USER = "x = 3.5\nz = 300\nunit = lambda"

    def test_user_in_the_absorbing_border(self):
        scenario = load_scenario(str(CONFIG_DIR / "mixed.cfg"))
        lam = scenario.carrier.wavelength
        want = loader_message(self.MIXED.replace(self.SECOND_USER, "x = 110\nz = 300\nunit = lambda"))
        assert "lies in the absorbing border" in want
        with pytest.raises(GridError) as exc:
            scenario.with_users((scenario.users[0], UserPosition(110 * lam, 300 * lam, "ue2")))
        assert str(exc.value) == want

    def test_user_on_the_obstacle_plane(self):
        scenario = load_scenario(str(CONFIG_DIR / "mixed.cfg"))
        want = loader_message(self.MIXED.replace(self.SECOND_USER,
                                                 "x = 0.0375\nz = 1.606031025\nunit = m"))
        assert "sits exactly on the obstacle plane" in want
        with pytest.raises(GridError) as exc:
            scenario.with_users((scenario.users[0], UserPosition(0.0375, 1.606031025, "ue2")))
        assert str(exc.value) == want

    def test_undersampled_grid(self):
        scenario = load_scenario(str(CONFIG_DIR / "mixed.cfg"))
        want = loader_message(self.MIXED.replace("nx = 4096", "nx = 512"))
        assert "exceeds lambda/4" in want
        with pytest.raises(GridError) as exc:
            replace(scenario, grid=replace(scenario.grid, nx=512))
        assert str(exc.value) == want


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["baseline.cfg", "shadow.cfg", "mixed.cfg",
                                      "deep_shadow.cfg"])
    def test_loads_and_validates(self, name):
        s = load_scenario(str(CONFIG_DIR / name))
        assert s.array.n == 64
        assert s.k == 2
        assert s.tx_power == 1.0e4

    def test_baseline_is_free_space(self):
        assert load_scenario(str(CONFIG_DIR / "baseline.cfg")).obstacle is None

    @pytest.mark.parametrize("name", ["shadow.cfg", "mixed.cfg", "deep_shadow.cfg"])
    def test_blocked_scenarios_have_the_edge(self, name):
        s = load_scenario(str(CONFIG_DIR / name))
        lam = s.carrier.wavelength
        assert s.obstacle is not None
        assert s.obstacle.depth == pytest.approx(150 * lam, rel=1e-8)
        assert s.obstacle.edge_x == 0.0
