"""Tapped delay line channel, noise, interferers and feasibility checks."""

import os
import platform
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from soundersim import fixedpoint as fp
from soundersim.channel import (
    ChannelModel,
    Interferer,
    add_interference_and_noise,
    apply_channel,
    channel_digest,
    channel_from_dict,
    channel_to_dict,
    convolve_taps,
    load_channel,
    save_channel,
    validate_config,
)
from soundersim.config import SounderConfig
from soundersim.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]


def _random_samples(rng, count, scale=8192):
    return fp.from_components(
        rng.integers(-scale, scale, count), rng.integers(-scale, scale, count)
    )


def test_unit_tap_delays_bit_identically():
    rng = np.random.default_rng(7)
    tx = _random_samples(rng, 400)
    model = ChannelModel(taps=((13, 1.0),))
    result = apply_channel(tx, model)
    assert result.clipped_components == 0
    assert len(result.samples) == 413
    assert np.array_equal(result.samples[13:], tx)
    assert np.array_equal(result.samples[:13], np.zeros(13, fp.SAMPLE_DTYPE))


def test_interferer_alone_matches_tone_oracle():
    model = ChannelModel(taps=((0, 0.0),),
                         interferers=(Interferer(freq=0.03, amplitude=0.25,
                                                 phase=0.7),))
    tx = np.zeros(256, fp.SAMPLE_DTYPE)
    result = apply_channel(tx, model, start_index=1000)
    n = np.arange(1000, 1256)
    oracle = 0.25 * np.exp(1j * (2 * np.pi * 0.03 * n + 0.7))
    # Phase wraps mod 1 cycle before the multiply, so compare quantized.
    assert np.array_equal(result.samples, fp.quantize(oracle))


def test_chunked_interferer_phase_is_seamless():
    model = ChannelModel(taps=((0, 1.0),),
                         interferers=(Interferer(freq=0.0137, amplitude=0.1),
                                      Interferer(freq=-0.3, amplitude=0.2, phase=1.0)))
    rng = np.random.default_rng(8)
    tx = _random_samples(rng, 600)
    # Cuts inside 256-sample rows, at the origin, one hour in (snapshot
    # 720,000 of the default 2.5 M-sample frame) and before index 0.
    for start, cuts in ((0, (200, 400)), (720_000 * 2_500_000 - 107, (200, 389)),
                        (-300, (1, 301, 555))):
        whole = add_interference_and_noise(convolve_taps(tx, model), model, start)
        bounds = [0, *cuts, len(tx)]
        parts = np.concatenate([
            add_interference_and_noise(convolve_taps(tx[a:b], model), model, start + a)
            for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(whole, parts)


#: pi to 60 digits, for the exact-phase tone oracle.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _exact_tone(tone, n):
    """``A·exp(i(2π·frac(f·n) + φ))`` with the fraction exact, to about 1e-40."""
    with localcontext() as ctx:
        ctx.prec = 50
        cycles = Fraction(tone.freq) * n % 1
        angle = (2 * _PI * cycles.numerator / cycles.denominator
                 + Decimal(tone.phase)).remainder_near(2 * _PI)
        parts = [Decimal(0), Decimal(0)]  # cos, sin by their Taylor series
        term, k = Decimal(1), 0
        while abs(term) > Decimal("1e-45"):
            parts[k % 2] += term if k % 4 < 2 else -term
            k += 1
            term *= angle / k
        amplitude = Decimal(tone.amplitude)
        return complex(float(amplitude * parts[0]), float(amplitude * parts[1]))


@pytest.mark.parametrize("tone", [
    Interferer(freq=0.1234567, amplitude=0.1),
    Interferer(freq=0.0137, amplitude=0.25, phase=0.4),
    Interferer(freq=-0.3, amplitude=1.0, phase=-2.5),
    Interferer(freq=0.5, amplitude=0.05, phase=3.0),
], ids=["0.1234567", "0.0137", "-0.3", "0.5"])
@pytest.mark.parametrize("k", [1, 1000, 720_000])
def test_tone_matches_exact_phase_oracle(tone, k):
    # Snapshot k's propagated window in the default configuration; at
    # k = 720,000 (one hour) n is about 1.8e12.
    start = k * SounderConfig().frame_len - 107
    model = ChannelModel(taps=((0, 0.0),), interferers=(tone,))
    out = add_interference_and_noise(np.zeros(67_798, np.complex128), model,
                                     start_index=start)
    picks = np.random.default_rng(k).choice(len(out), 300, replace=False)
    error = max(abs(out[j] - _exact_tone(tone, start + int(j)))
                for j in [0, len(out) - 1, *picks])
    assert error <= 4e-15 * tone.amplitude


def test_tone_bytes_do_not_depend_on_the_cpu_dispatch_level():
    # numpy picks SIMD loops by CPU at import; the tone's complex
    # products are real ufunc calls, so every level must give one digest.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the dispatch levels below are x86 feature groups")
    code = (
        "import hashlib, numpy as np\n"
        "from soundersim.channel import ChannelModel, Interferer, "
        "add_interference_and_noise\n"
        "tones = (Interferer(0.1234567, 0.3, 0.7), Interferer(-0.0137, 0.5, -2.0),\n"
        "         Interferer(0.5, 0.1), Interferer(3e-9, 0.2, 1.0))\n"
        "digest = hashlib.sha256()\n"
        "for start in (-107, 2_500_000 - 107, 720_000 * 2_500_000 - 107):\n"
        "    out = np.zeros(20_000, np.complex128)\n"
        "    add_interference_and_noise(out, ChannelModel(taps=((0, 0.0),), "
        "interferers=tones), start_index=start)\n"
        "    digest.update(out.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    digests = {}
    for level in ("", "X86_V4", "X86_V4 X86_V3"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=level)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests[level] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_propagation_is_linear_in_gains():
    rng = np.random.default_rng(9)
    tx = _random_samples(rng, 300)
    taps = ((0, 0.5 + 0.25j), (7, -0.125j), (40, 0.0625))
    one = convolve_taps(tx, ChannelModel(taps=taps))
    scaled = convolve_taps(
        tx, ChannelModel(taps=tuple((d, 3.0 * g) for d, g in taps))
    )
    assert np.allclose(scaled, 3.0 * one, rtol=1e-12, atol=0)


def test_superposition_of_taps():
    rng = np.random.default_rng(10)
    tx = _random_samples(rng, 300)
    both = convolve_taps(tx, ChannelModel(taps=((5, 0.5), (90, -0.25j))))
    early = convolve_taps(tx, ChannelModel(taps=((5, 0.5), (90, 0.0))))
    late = convolve_taps(tx, ChannelModel(taps=((5, 0.0), (90, -0.25j))))
    assert np.allclose(both, early + late, rtol=0, atol=1e-15)


def test_noise_is_deterministic_per_seed():
    tx = np.zeros(500, fp.SAMPLE_DTYPE)
    model = ChannelModel(taps=((0, 1.0),), noise_std=0.05, seed=42)
    a = apply_channel(tx, model)
    b = apply_channel(tx, model)
    assert np.array_equal(a.samples, b.samples)
    other = apply_channel(tx, ChannelModel(taps=((0, 1.0),), noise_std=0.05,
                                           seed=43))
    assert not np.array_equal(a.samples, other.samples)


def test_noise_statistics():
    tx = np.zeros(500_000, fp.SAMPLE_DTYPE)
    model = ChannelModel(taps=((0, 0.0),), noise_std=0.1, seed=11)
    out = add_interference_and_noise(convolve_taps(tx, model), model)
    for comp in (out.real, out.imag):
        assert abs(comp.mean()) < 3 * 0.1 / np.sqrt(comp.size)
        assert abs(comp.std() - 0.1) < 3 * 0.1 / np.sqrt(2 * comp.size)
    # I and Q noise are independent.
    rho = np.mean(out.real * out.imag) / 0.01
    assert abs(rho) < 3 / np.sqrt(out.size)


def test_saturation_is_counted_and_clipped():
    tx = fp.from_components([30000, -30000, 100], [0, 0, 0])
    model = ChannelModel(taps=((0, 2.0),))
    result = apply_channel(tx, model)
    assert result.clipped_components == 2
    assert result.samples["i"].tolist() == [32767, -32768, 200]
    # The result is the (samples, clipped) pair quantize_clipped returns.
    samples, clipped = apply_channel(tx, model)
    expected, expected_clipped = fp.quantize_clipped(convolve_taps(tx, model))
    assert samples.tobytes() == expected.tobytes()
    assert clipped == expected_clipped == 2


def test_validator_accepts_default_against_table_channel():
    cfg = SounderConfig()
    model = ChannelModel(taps=((0, 1.0), (500, 0.5), (1000, 0.25)))
    report = validate_config(cfg, model)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["symbol covers delay spread"].margin_samples == 24
    assert by_name["discard covers first arrival"].margin_samples == 1024


def test_validator_rejects_excess_delay_spread():
    # 2.05 us spread at 2 ns/sample is 1025 samples, one past the symbol.
    cfg = SounderConfig()
    model = ChannelModel(taps=((0, 1.0), (1025, 0.5)))
    report = validate_config(cfg, model)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["symbol covers delay spread"]
    assert failed[0].margin_samples == -1
    assert "FAIL" in str(report)


def test_validator_zero_margin_settling_passes():
    cfg = SounderConfig(discard_len=1024, rep_period_s=5e-3)
    model = ChannelModel(taps=((0, 1.0),))
    report = validate_config(cfg, model)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["discard covers first arrival"].margin_samples == 0


def test_validator_rejects_late_first_arrival():
    cfg = SounderConfig()
    model = ChannelModel(taps=((1025, 1.0),))
    report = validate_config(cfg, model)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["discard covers first arrival"]
    assert failed[0].margin_samples == -1


def test_validator_reads_offset_as_signed_lag():
    cfg = SounderConfig()
    model = ChannelModel(taps=((3, 1.0),))
    early = cfg.frame_len - 5  # equivalent to -5
    # offset: (discard margin, train margin); half a frame (1,250,000
    # samples) is still a delay, one sample more is an advance.
    cases = {0: (1021, 3), 1021: (0, 1024), 1022: (-1, 1025),
             early: (1026, -2), -5: (1026, -2), -3: (1024, 0),
             1_250_000: (-1_248_979, 1_250_003),
             1_250_001: (1_251_020, -1_249_996)}
    for offset, (settle, train) in cases.items():
        report = validate_config(cfg, model, offset)
        margins = {c.name: c.margin_samples for c in report.checks}
        assert margins["discard covers first arrival"] == settle, offset
        assert margins["transmit train covers the averaging window"] == train, offset
        assert report.passed == (settle >= 0 and train >= 0), offset


def test_model_validation():
    with pytest.raises(ConfigurationError):
        ChannelModel(taps=())
    with pytest.raises(ConfigurationError):
        ChannelModel(taps=((-1, 1.0),))
    with pytest.raises(ConfigurationError):
        ChannelModel(taps=((3, 1.0), (3, 0.5)))
    with pytest.raises(ConfigurationError):
        ChannelModel(taps=((0, 1.0),), noise_std=-0.1)
    with pytest.raises(ConfigurationError):
        ChannelModel(taps=((0, 1.0),), seed=-1)
    with pytest.raises(ConfigurationError):
        Interferer(freq=0.6, amplitude=0.1)
    with pytest.raises(ConfigurationError):
        Interferer(freq=0.1, amplitude=-0.1)
    # Non-finite values would reach the int16 cast as NaN or skip the noise.
    nan, inf = float("nan"), float("inf")
    for gain in (nan, complex(0, inf)):
        with pytest.raises(ConfigurationError, match="finite"):
            ChannelModel(taps=((0, gain), (3, 0.5)))
    for noise_std in (nan, inf):
        with pytest.raises(ConfigurationError, match="finite"):
            ChannelModel(taps=((0, 1.0),), noise_std=noise_std)
    for bad in ({"amplitude": nan}, {"amplitude": inf}, {"phase": nan}, {"phase": -inf}):
        with pytest.raises(ConfigurationError, match="finite"):
            Interferer(**{"freq": 0.1, "amplitude": 0.1, **bad})
    # int() would truncate a fractional delay or seed to another channel.
    for taps in (((2.9, 1.0),), ((0, 1.0), (3.0, 0.5)), ((True, 1.0),)):
        with pytest.raises(ConfigurationError, match="tap delays must be integers"):
            ChannelModel(taps=taps)
    for seed in (7.8, 7.0, True, "7"):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            ChannelModel(taps=((0, 1.0),), seed=seed)
    assert ChannelModel(taps=((np.int64(3), 1.0),), seed=np.uint64(5)) == \
        ChannelModel(taps=((3, 1.0),), seed=5)


def test_delay_properties():
    model = ChannelModel(taps=((120, -0.25), (0, 1.0), (50, 0.5j)))
    assert model.first_arrival == 0
    assert model.max_delay == 120
    assert model.delay_span == 120


def test_json_round_trip_and_digest():
    model = ChannelModel(
        taps=((0, 1.0), (50, 0.5j), (120, -0.25)),
        noise_std=0.01,
        interferers=(Interferer(freq=0.125, amplitude=0.3, phase=1.5),),
        seed=99,
    )
    back = channel_from_dict(channel_to_dict(model))
    assert back == model
    assert channel_digest(back) == channel_digest(model)
    # Digest must move when the model moves.
    other = ChannelModel(taps=((0, 1.0), (50, 0.5j), (120, -0.2499)),
                         noise_std=0.01,
                         interferers=(Interferer(0.125, 0.3, 1.5),), seed=99)
    assert channel_digest(other) != channel_digest(model)


def test_channel_file_round_trip(tmp_path):
    model = ChannelModel(taps=((3, 0.75 - 0.1j),), noise_std=0.02, seed=5)
    path = tmp_path / "channel.json"
    save_channel(path, model)
    assert load_channel(path) == model


def test_malformed_channel_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_channel(path)
    path.write_text('{"taps": [{"delay": 0}]}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_channel(path)
