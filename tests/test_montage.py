"""Channel alignment against the built-in 23-target map and custom maps.

The per-target loop below (length-fit each source, concatenate) is the
reference the one-gather ``mix_channels`` is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegadapt.errors import AlignmentError, DomainError
from eegadapt.montage import (
    TARGET_ORDER,
    MontageMap,
    MontageTarget,
    builtin_montage,
    format_montage_text,
    mix_channels,
    parse_montage_text,
)

# Independently typed copy of the expected source table, frozen for the test.
EXPECTED_SOURCES = {
    "FP1": ["Fp1", "Afp1", "AF3", "AF7", "AFF5h"],
    "FP2": ["Fp2", "Afp2", "AF4", "AF8", "AFF6h"],
    "F3": ["F3", "F5", "F1", "FFC5h", "FFC3h"],
    "F4": ["F4", "F2", "F6", "FFC4h", "FFC6h"],
    "C3": ["C3", "C5", "C1", "CCP5h", "CCP3h"],
    "C4": ["C4", "C6", "C2", "CCP4h", "CCP6h"],
    "P3": ["P3", "P1", "P5", "CPP5h", "CPP3h"],
    "P4": ["P4", "P2", "P6", "CPP4h", "CPP6h"],
    "O1": ["O1", "POO1", "PO3", "PO7", "POO9h"],
    "O2": ["O2", "POO2", "PO4", "PO8", "POO10h"],
    "F7": ["F7", "F5", "F9", "FFT9h", "FFT7h"],
    "F8": ["F8", "F6", "F10", "FFT8h", "FFT10h"],
    "T3": ["T7", "TTP7h", "C5", "FTT7h", "FTT9h"],
    "T4": ["T8", "TTP8h", "C6", "FTT8h", "FTT10h"],
    "T5": ["TP7", "TTP7h", "CP5", "TPP7h", "TPP9h"],
    "T6": ["TP8", "TTP8h", "CP6", "TPP8h", "TPP10h"],
    "A1": ["TP9", "TP7", "T7", "FTT9h", "FT9"],
    "A2": ["TP10", "TP8", "T8", "FTT10h", "FT10"],
    "FZ": ["Fz", "AFF1h", "AFF2h", "FFC1h", "FFC2h"],
    "CZ": ["Cz", "FCC1h", "FCC2h", "CCP1h", "CCP2h"],
    "PZ": ["Pz", "CPP1h", "CPP2h", "POO1h", "PPO2h"],
    "T1": ["TTP7h", "C5", "TP7", "CP5", "CCP5h"],
    "T2": ["TTP8h", "C6", "TP8", "CP6", "CCP6h"],
}


def all_source_labels():
    labels = []
    for sources in EXPECTED_SOURCES.values():
        for s in sources:
            if s not in labels:
                labels.append(s)
    return labels


def fit_length(signal, target_len):
    """Reference length fit: keep the head of a longer signal, tile a shorter."""
    signal = np.asarray(signal, dtype=np.float64).reshape(-1)
    if signal.size >= target_len:
        return signal[:target_len].copy()
    reps = -(-target_len // signal.size)
    return np.tile(signal, reps)[:target_len]


def loop_mix(data, labels, montage, target_len):
    """Reference alignment: per window and target, fit each source, concatenate."""
    rows = {lab: i for i, lab in enumerate(labels)}
    out = np.empty((data.shape[0], len(montage.targets), target_len))
    for n in range(data.shape[0]):
        for r, target in enumerate(montage.targets):
            k = len(target.sources)
            base, extra = divmod(target_len, k)
            out[n, r] = np.concatenate([
                fit_length(data[n, rows[src]], base + (1 if j < extra else 0))
                for j, src in enumerate(target.sources)
            ])
    return out


def make_full_batch(t=64, seed=0, n=3):
    """(N, E, T) windows holding every electrode the built-in map references,
    each carrying a unique constant signature, plus their channel labels."""
    labels = all_source_labels()
    rng = np.random.default_rng(seed)
    data = np.empty((n, len(labels), t))
    for i in range(len(labels)):
        data[:, i] = float(i + 1) + 0.01 * rng.normal(size=(n, t))
    return data, labels


def select(data, labels, montage, target_len):
    return mix_channels(data, labels, montage.first_sources(), target_len)


class TestBuiltinMap:
    def test_reproduces_expected_table(self):
        montage = builtin_montage()
        assert [t.target_label for t in montage.targets] == list(TARGET_ORDER)
        for target in montage.targets:
            assert list(target.sources) == EXPECTED_SOURCES[target.target_label]

    def test_fp1_selects_fp1_electrode(self):
        data, labels = make_full_batch()
        out = select(data, labels, builtin_montage(), 64)
        fp1_row = labels.index("Fp1")
        np.testing.assert_array_equal(out[:, 0], data[:, fp1_row])

    def test_t3_selects_t7_electrode(self):
        data, labels = make_full_batch()
        out = select(data, labels, builtin_montage(), 64)
        t3_index = list(TARGET_ORDER).index("T3")
        t7_row = labels.index("T7")
        np.testing.assert_array_equal(out[:, t3_index], data[:, t7_row])

    def test_missing_electrode_named_in_error(self):
        data, labels = make_full_batch()
        kept = [i for i, lab in enumerate(labels) if lab != "Fp1"]
        with pytest.raises(AlignmentError, match="Fp1"):
            select(data[:, kept], [labels[i] for i in kept], builtin_montage(), 64)


class TestMixChannels:
    def test_even_split_lengths(self):
        data, labels = make_full_batch(t=200)
        out = mix_channels(data, labels, builtin_montage(), 200)
        # 200 / 5 sources = 40 samples each; check FP1's five segments.
        for j, src in enumerate(EXPECTED_SOURCES["FP1"]):
            row = labels.index(src)
            np.testing.assert_array_equal(
                out[:, 0, j * 40 : (j + 1) * 40], data[:, row, :40]
            )

    def test_single_source_identity(self):
        montage = MontageMap(targets=tuple(
            MontageTarget(lab, (EXPECTED_SOURCES[lab][0],)) for lab in TARGET_ORDER
        ))
        data, labels = make_full_batch(t=64)
        out = mix_channels(data, labels, montage, 64)
        fp1_row = labels.index("Fp1")
        np.testing.assert_array_equal(out[:, 0], data[:, fp1_row])

    def test_uneven_split_segment_oracle(self):
        # target_len 23 over 5 sources: lengths [5, 5, 5, 4, 4].
        data, labels = make_full_batch(t=17, seed=3)
        out = mix_channels(data, labels, builtin_montage(), 23)
        lengths = [5, 5, 5, 4, 4]
        for n in range(data.shape[0]):
            for target_idx, target_label in enumerate(TARGET_ORDER):
                offset = 0
                for src, seg_len in zip(EXPECTED_SOURCES[target_label], lengths):
                    row = labels.index(src)
                    expected = fit_length(data[n, row], seg_len)
                    np.testing.assert_array_equal(
                        out[n, target_idx, offset : offset + seg_len], expected
                    )
                    offset += seg_len
                assert offset == 23

    def test_too_many_sources_for_target_len(self):
        data, labels = make_full_batch()
        with pytest.raises(DomainError):
            mix_channels(data, labels, builtin_montage(), 3)

    def test_select_equals_mix_with_first_source_only(self):
        first_only = MontageMap(targets=tuple(
            MontageTarget(lab, (EXPECTED_SOURCES[lab][0],)) for lab in TARGET_ORDER
        ))
        data, labels = make_full_batch(t=90, seed=9)
        selected = select(data, labels, builtin_montage(), 128)
        mixed = mix_channels(data, labels, first_only, 128)
        np.testing.assert_array_equal(selected, mixed)


class TestShapeAndPermutation:
    def test_output_shape_contract(self):
        data, labels = make_full_batch(t=50)
        for target_len in (10, 50, 137):
            out = select(data, labels, builtin_montage(), target_len)
            assert out.shape == (3, 23, target_len)
            out = mix_channels(data, labels, builtin_montage(), target_len)
            assert out.shape == (3, 23, target_len)

    def test_channel_storage_order_is_irrelevant(self):
        data, labels = make_full_batch(t=64, seed=4)
        rng = np.random.default_rng(12)
        perm = rng.permutation(len(labels))
        shuffled = data[:, perm]
        shuffled_labels = [labels[i] for i in perm]
        montage = builtin_montage()
        for fn in (select, mix_channels):
            a = fn(data, labels, montage, 48)
            b = fn(shuffled, shuffled_labels, montage, 48)
            np.testing.assert_array_equal(a, b)


POOL = [f"e{i}" for i in range(8)]


@st.composite
def alignment_cases(draw):
    sources = [
        draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6))
        for _ in TARGET_ORDER
    ]
    montage = MontageMap(targets=tuple(
        MontageTarget(lab, tuple(srcs)) for lab, srcs in zip(TARGET_ORDER, sources)
    ))
    k = max(len(srcs) for srcs in sources)
    t = draw(st.integers(1, 300))
    target_len = draw(st.integers(k, 300))
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(len(POOL))))
    seed = draw(st.integers(0, 2**32 - 1))
    return montage, t, target_len, n, list(perm), seed


class TestGatherMatchesLoop:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(alignment_cases())
    def test_mix_and_select_equal_reference_loop(self, case):
        montage, t, target_len, n, perm, seed = case
        labels = [POOL[i] for i in perm]
        data = np.random.default_rng(seed).normal(size=(n, len(POOL), t))
        for m in (montage, montage.first_sources()):
            expected = loop_mix(data, labels, m, target_len)
            got = mix_channels(data, labels, m, target_len)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestMapFileFormat:
    def test_builtin_round_trips(self):
        montage = builtin_montage()
        text = format_montage_text(montage)
        parsed = parse_montage_text(text)
        assert parsed == montage
        assert format_montage_text(parsed) == text

    def test_wrong_target_set_rejected(self):
        text = "FP1: a,b\n"
        with pytest.raises(DomainError):
            parse_montage_text(text)

    def test_comments_and_blanks_ignored(self):
        montage = builtin_montage()
        text = "# a comment\n\n" + format_montage_text(montage)
        assert parse_montage_text(text) == montage
