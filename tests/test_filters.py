"""Filter design and zero-phase application, measured spectrally and against scipy."""

import json

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import sosfilt, sosfiltfilt

from eegadapt import filters
from eegadapt.core import extract_windows
from eegadapt.errors import DomainError
from eegadapt.fileio import write_recording_binary
from eegadapt.filters import _checked, apply_chain_to_rows, design_bandpass, design_notch
from eegadapt.manifest import load_manifest, load_recording
from eegadapt.pipeline import FilterSettings, preprocess_manifest


def filtfilt(sos, x):
    """Zero-phase filtering of one 1-D signal, as one row of a matrix."""
    return apply_chain_to_rows(sos, np.asarray(x, dtype=np.float64)[None, :])[0]


def amplitude_ratio(chain, freq, fs, n=4000):
    """FFT amplitude of a filtered pure tone over the input amplitude.

    The tone frequency is placed on an exact FFT bin so leakage does not
    contaminate the measurement.
    """
    k = int(round(freq * n / fs))
    assert abs(k * fs / n - freq) < 1e-9, "tone must sit on an FFT bin"
    t = np.arange(n) / fs
    x = np.sin(2.0 * np.pi * freq * t)
    y = filtfilt(chain, x)
    return np.abs(np.fft.rfft(y))[k] / np.abs(np.fft.rfft(x))[k]


class TestNotchDesign:
    def test_deep_null_at_center(self):
        chain = design_notch(50.0, 250.0, 30.0)
        assert amplitude_ratio(chain, 50.0, 250.0) <= 0.03

    def test_unit_gain_away_from_notch(self):
        chain = design_notch(50.0, 250.0, 30.0)
        ratio = amplitude_ratio(chain, 10.0, 250.0)
        assert abs(20.0 * np.log10(ratio)) <= 1.0

    def test_center_above_nyquist_rejected(self):
        with pytest.raises(DomainError):
            design_notch(130.0, 250.0, 30.0)


class TestBandpassDesign:
    def test_dc_suppressed(self):
        chain = design_bandpass(0.1, 75.0, 4, 200.0)
        x = np.full(4000, 10.0)
        y = filtfilt(chain, x)
        assert np.mean(np.abs(y[2000:])) <= 0.01

    def test_passband_tone_preserved(self):
        chain = design_bandpass(0.1, 75.0, 4, 200.0)
        ratio = amplitude_ratio(chain, 20.0, 200.0)
        assert abs(20.0 * np.log10(ratio)) <= 1.0

    def test_inverted_cutoffs_rejected(self):
        with pytest.raises(DomainError):
            design_bandpass(75.0, 0.1, 4, 200.0)


class TestFiltfilt:
    def test_identity_chain_passthrough(self):
        chain = _checked(np.array([[1.0, 0, 0, 1.0, 0, 0]]))
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        np.testing.assert_allclose(filtfilt(chain, x), x, atol=1e-12)

    def test_zero_in_zero_out(self):
        chain = design_notch(50.0, 250.0, 30.0)
        out = filtfilt(chain, np.zeros(500))
        np.testing.assert_array_equal(out, np.zeros(500))

    def test_zero_phase_impulse_symmetry(self):
        chain = design_notch(50.0, 250.0, 30.0)
        x = np.zeros(2001)
        x[1000] = 1.0
        y = filtfilt(chain, x)
        assert np.abs(y - y[::-1]).max() < 1e-6

    def test_too_short_signal_rejected(self):
        chain = design_bandpass(0.1, 75.0, 4, 200.0)
        with pytest.raises(DomainError):
            filtfilt(chain, np.zeros(3 * 2 * len(chain)))

    def test_linearity(self):
        chain = design_bandpass(0.1, 75.0, 4, 200.0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=1200)
        y = rng.normal(size=1200)
        a, b = 1.7, -0.4
        combined = filtfilt(chain, a * x + b * y)
        separate = a * filtfilt(chain, x) + b * filtfilt(chain, y)
        np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-9)


class TestStability:
    @pytest.mark.parametrize("chain", [
        design_notch(50.0, 250.0, 30.0),
        design_bandpass(0.1, 75.0, 4, 200.0),
        design_bandpass(0.1, 75.0, 4, 500.0),
    ], ids=["notch", "band200", "band500"])
    def test_impulse_response_decays(self, chain):
        # Tail beyond ~30 natural time constants must be below 1e-12.
        poles = np.concatenate([np.roots(s[3:]) for s in chain])
        rho = np.abs(poles).max()
        assert rho < 1.0
        tau = -1.0 / np.log(rho)
        horizon = int(np.ceil(30.0 * tau))
        impulse = np.zeros(horizon + 2000)
        impulse[0] = 1.0
        h = sosfilt(chain, impulse)
        assert np.abs(h[horizon:]).max() < 1e-12

    def test_unstable_section_rejected(self):
        # Pole at z = 1.1 lies outside the unit circle.
        with pytest.raises(DomainError, match="section 0 is unstable"):
            _checked(np.array([[1.0, 0, 0, 1.0, -1.1, 0.0]]))

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            _checked(np.array([[1.0, 0, 0, 1.0, np.inf, 0.0]]))

    def test_infinite_rate_design_rejected(self):
        # A rate of inf puts every cutoff at zero normalised frequency.
        with pytest.raises(DomainError):
            design_notch(50.0, np.inf, 30.0)


class TestCompositePipeline:
    def test_notch_then_bandpass_attenuates_line_and_dc(self):
        fs = 250.0
        notch = design_notch(50.0, fs, 30.0)
        band = design_bandpass(0.1, 75.0, 4, fs)
        n = 4000
        t = np.arange(n) / fs
        x = 3.0 + np.sin(2 * np.pi * 50.0 * t) + np.sin(2 * np.pi * 12.0 * t)
        y = filtfilt(band, filtfilt(notch, x))
        spectrum = np.abs(np.fft.rfft(y))
        k50 = int(round(50.0 * n / fs))
        k12 = int(round(12.0 * n / fs))
        assert spectrum[k50] / spectrum[k12] < 0.05
        assert np.abs(np.mean(y[1000:3000])) < 0.05


@st.composite
def filter_cases(draw):
    """A notch or bandpass design, and a matrix long enough for its padding."""
    fs = draw(st.sampled_from([100.0, 128.0, 200.0, 250.0, 256.0, 500.0, 1000.0]))
    if draw(st.booleans()):
        sos = design_notch(draw(st.sampled_from([0.05, 0.2, 0.4])) * fs, fs, 30.0)
    else:
        sos = design_bandpass(0.1, draw(st.sampled_from([20.0, 45.0])),
                              draw(st.integers(1, 6)), fs)
    padlen = 6 * len(sos)
    t = draw(st.integers(padlen + 1, 2048))
    rows = draw(st.integers(1, 16))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        scale=50.0, size=(rows, t))
    layout = draw(st.sampled_from(["C", "reversed", "F"]))
    x = {"C": x, "reversed": x[::-1, ::-1], "F": np.asfortranarray(x)}[layout]
    return sos, x


class TestMatchesScipy:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(filter_cases())
    def test_bitwise_equal_to_sosfiltfilt(self, case):
        sos, x = case
        expected = sosfiltfilt(sos, x, axis=1, padlen=6 * len(sos))
        assert np.array_equal(apply_chain_to_rows(sos, x), expected)


def test_steady_state_solved_once_per_design(tmp_path, monkeypatch):
    """Recordings at 200 and 250 Hz each get their own rate's chain, and
    tripling the recordings solves no further steady state."""
    rng = np.random.default_rng(3)
    entries = []
    for i in range(12):
        write_recording_binary(tmp_path / f"r{i}.raw",
                               rng.normal(scale=20.0, size=(3, 300)))
        entries.append({
            "path": f"r{i}.raw", "format": "f32-binary",
            "channel_labels": ["a", "b", "c"],
            "sample_rate_hz": (200.0, 250.0)[i % 2], "label": "first",
            "subject_id": f"s{i}", "split": "train",
        })
    solves = []
    solve = scipy.signal.sosfilt_zi
    monkeypatch.setattr(scipy.signal, "sosfilt_zi",
                        lambda sos: solves.append(sos) or solve(sos))
    cfg = FilterSettings()
    for n in (4, 12):
        path = tmp_path / f"manifest{n}.json"
        path.write_text(json.dumps({"classes": {"first": 0},
                                    "recordings": entries[:n]}))
        manifest = load_manifest(path)
        filters._steady_state.cache_clear()
        solves.clear()
        wset = preprocess_manifest(manifest, cfg, 100)
        # One notch and one bandpass design for each of the two rates.
        assert len(solves) == 4

        expected = []
        for entry in manifest.recordings:
            fs = entry.sample_rate_hz
            notch = design_notch(cfg.notch_hz, fs, cfg.notch_q)
            band = design_bandpass(cfg.band_low_hz, cfg.band_high_hz,
                                   cfg.band_order, fs)
            x = load_recording(entry, manifest.base_dir)
            x = sosfiltfilt(notch, x, axis=1, padlen=6 * len(notch))
            x = sosfiltfilt(band, x, axis=1, padlen=6 * len(band))
            expected.append(extract_windows(x, 100))
        np.testing.assert_array_equal(wset.data, np.concatenate(expected))
