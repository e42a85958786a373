"""Sounder configuration defaults, derived sizes and serialization."""

import pytest

from soundersim.config import (
    SounderConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from soundersim.errors import ConfigurationError
from soundersim.waveform import ZcParams


def test_default_operating_point():
    cfg = SounderConfig()
    assert cfg.signal_len == 1024
    assert cfg.discard_len == 2048
    assert cfg.avg_count == 64
    assert cfg.shift_bits == 6
    assert cfg.rep_period_s == 5e-3
    assert cfg.sample_period_s == 2e-9
    assert cfg.center_freq_hz == 5.725e9
    assert cfg.tx_power_dbm == 14.0
    assert cfg.backoff == 0.5
    assert cfg.zc == ZcParams(813, 7)


def test_derived_sizes():
    cfg = SounderConfig()
    assert cfg.frame_len == 2_500_000
    assert cfg.skip_len == 2_432_416
    assert cfg.train_repetitions == 66
    acfg = cfg.averager_config()
    assert acfg.window_len == 2048 + 64 * 1024


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        SounderConfig(avg_count=128)  # > 2**shift_bits
    with pytest.raises(ConfigurationError):
        SounderConfig(backoff=0.0)
    with pytest.raises(ConfigurationError):
        SounderConfig(zc=ZcParams(1025, 2))  # longer than the symbol
    with pytest.raises(ConfigurationError):
        SounderConfig(num_snapshots=-1)
    with pytest.raises(ConfigurationError):
        SounderConfig(rep_period_s=-5e-3)
    with pytest.raises(ConfigurationError):
        SounderConfig(center_freq_hz=0.0)
    with pytest.raises(ConfigurationError):
        SounderConfig(rep_period_s=3.3e-9)  # not a whole sample count
    with pytest.raises(ConfigurationError):
        # Frame shorter than discard + averaging window.
        SounderConfig(rep_period_s=1e-4, avg_count=64, discard_len=2048)


def test_dict_round_trip():
    cfg = SounderConfig(signal_len=256, discard_len=512, avg_count=16,
                        shift_bits=4, rep_period_s=1e-3,
                        sample_period_s=2e-9, zc=ZcParams(201, 5),
                        num_snapshots=7)
    data = config_to_dict(cfg)
    assert data["zc"] == {"length": 201, "root": 5}
    assert config_from_dict(data) == cfg


@pytest.mark.parametrize("fields", [
    {"tx_power_dbm": "abc", "center_freq_hz": True},
    {"center_freq_hz": float("nan")},
    {"tx_power_dbm": float("inf")},
    {"backoff": True},
])
def test_numeric_fields_are_type_checked(fields):
    data = config_to_dict(SounderConfig())
    data.update(fields)
    with pytest.raises(ConfigurationError):
        config_from_dict(data)


def test_file_round_trip(tmp_path):
    cfg = SounderConfig(num_snapshots=4)
    path = tmp_path / "config.json"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_malformed_config_files(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{]")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(path)
    path.write_text('{"no_such_field": 1}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_config(path)


@pytest.mark.parametrize("text", [
    pytest.param("[]", id="top-level-array"),
    pytest.param('{"zc": null}', id="null-zc"),
    pytest.param('{"zc": {"length": 51, "root": 2, "rooot": 3}}', id="unknown-zc-key"),
])
def test_config_file_that_is_not_a_config_object_is_rejected(tmp_path, text):
    # The array and the null zc used to load as the default config.
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="malformed sounder config"):
        load_config(path)


def test_config_file_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"num_snapshots": 4, "x": "\xff"}')
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(path)
