"""JSON configuration parsing, validation, and round-trips."""

import json
import re
from pathlib import Path

import pytest

from alphaflow.config import _KEYS, _REQUIRED, config_from_dict, config_to_dict, parse_config
from alphaflow.errors import ConfigurationError

MINIMAL = {"n": 64, "alpha": 1.0, "eta": 1.0, "lambda": 2.0,
           "dt": 1e-3, "t_end": 0.1}


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.snapshot_stride == 1
        assert cfg.seed == 0
        assert cfg.dim == 2
        assert cfg.epsilon == 0.0
        assert cfg.delta == 1.0
        assert cfg.lam == 2.0

    def test_missing_required_key_named(self):
        doc = dict(MINIMAL)
        del doc["alpha"]
        with pytest.raises(ConfigurationError, match="alpha"):
            config_from_dict(doc)

    def test_unknown_key_rejected_by_name(self):
        doc = dict(MINIMAL, viscosity=2.0)
        with pytest.raises(ConfigurationError, match="viscosity"):
            config_from_dict(doc)

    def test_delta_out_of_range_named(self):
        doc = dict(MINIMAL, delta=1.5)
        with pytest.raises(ConfigurationError, match="delta"):
            config_from_dict(doc)

    def test_type_error_reported(self):
        doc = dict(MINIMAL, n="many")
        with pytest.raises(ConfigurationError, match="n"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key, value, want", [
        ("snapshot_stride", 3, 3), ("snapshot_stride", 3.0, 3),
        ("seed", 0, 0), ("seed", 12.0, 12), ("n", 32.0, 32), ("dim", 3.0, 3),
    ])
    def test_integer_keys_take_integral_numbers(self, key, value, want):
        cfg = config_from_dict(dict(MINIMAL, **{key: value}))
        got = getattr(cfg, key)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("key, value", [
        ("snapshot_stride", 2.7), ("seed", 1.9), ("n", 64.5), ("dim", 2.5),
        ("seed", True), ("snapshot_stride", False), ("seed", "3"), ("seed", None),
        ("seed", float("nan")), ("seed", float("inf")), ("n", [64]),
        ("alpha", True), ("epsilon", False), ("lambda", "2.0"), ("dt", None),
        # json.load takes NaN and Infinity: they used to crash, blow up or
        # run zero steps
        ("dt", float("nan")), ("dt", float("inf")), ("t_end", float("inf")),
        ("t_end", float("nan")), ("eta", float("nan")), ("eta", float("inf")),
        ("alpha", float("nan")), ("alpha", float("inf")), ("lambda", float("nan")),
        ("lambda", float("inf")), ("epsilon", float("nan")), ("epsilon", float("inf")),
    ])
    def test_integer_keys_reject_everything_else(self, key, value):
        # a fractional value used to be truncated silently (2.7 -> 2), and a
        # float key took a JSON boolean as 1.0 / 0.0
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict(dict(MINIMAL, **{key: value}))

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config(tmp_path / "missing.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            parse_config(path)


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self, tmp_path):
        doc = dict(MINIMAL, epsilon=1.2345678901234567e-3, delta=0.333,
                   seed=99, initial_condition="shear")
        cfg = config_from_dict(doc)
        path = tmp_path / "effective.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        reparsed = parse_config(path)
        assert reparsed == cfg

    def test_effective_dict_contains_all_keys(self):
        cfg = config_from_dict(dict(MINIMAL))
        doc = config_to_dict(cfg)
        assert doc["lambda"] == 2.0
        assert set(doc) == {"dim", "n", "alpha", "eta", "lambda", "epsilon",
                            "delta", "dt", "t_end", "snapshot_stride",
                            "initial_condition", "stress_init", "seed"}

    def test_floats_survive_json_exactly(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        cfg = config_from_dict(dict(MINIMAL, dt=value, t_end=value * 100))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert parse_config(path).dt == value


class TestReadme:
    """The README's run-configuration section states the schema SimConfig defines."""

    @pytest.fixture(scope="class")
    def section(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("### Run configuration (JSON)")
        return readme[start:readme.index("\n### ", start + 1)]

    def test_example_parses_and_lists_every_key(self, section):
        example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        config_from_dict(example)  # raises unless the example is a valid config
        assert set(example) == set(_KEYS)

    def test_required_keys_sentence(self, section):
        sentence = re.search(r"Required keys: (.*?);", section, re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", sentence)) == _REQUIRED
