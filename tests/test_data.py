import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esnrae import (
    Dataset,
    FormatError,
    NoiseSpec,
    inject_noise,
    make_synthetic,
    measured_snr,
    normalize,
    parse_ucr,
    write_ucr,
)
from ucr_reference import parse_ucr_per_line


def small_dataset(p=6, k=10, seed=0, split="train"):
    g = np.random.default_rng(seed)
    return Dataset(
        name="toy",
        patterns=g.standard_normal((p, k)),
        labels=np.arange(p) % 2,
        label_names=(-1, 1),
        split=split,
    )


class TestParseUcr:
    def test_comma_separated(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2, 0.5, -1.25\n7, 3.0, 4.0\n2, 0.0, 1.0\n")
        d = parse_ucr(str(path))
        assert d.n_patterns == 3 and d.input_len == 2
        assert d.label_names == (2, 7)
        assert list(d.labels) == [0, 1, 0]
        assert d.patterns[0, 1] == -1.25

    def test_tab_and_whitespace_separated(self, tmp_path):
        for sep, content in (("\t", "1\t0.5\t0.25\n-1\t1.0\t2.0\n"),
                             (" ", "1 0.5 0.25\n-1 1.0 2.0\n")):
            path = tmp_path / f"d{ord(sep)}.txt"
            path.write_text(content)
            d = parse_ucr(str(path))
            assert d.n_patterns == 2 and d.input_len == 2
            assert d.label_names == (-1, 1)

    def test_single_line_single_class(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1, 0.0, 0.0\n")
        d = parse_ucr(str(path))
        assert d.n_patterns == 1 and d.input_len == 2 and d.n_classes == 1

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1, 0.5, 0.5\n1, 0.5\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_ucr(str(path))

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1, 0.5, zebra\n")
        with pytest.raises(FormatError, match="non-numeric"):
            parse_ucr(str(path))

    def test_blank_field_is_refused(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,0.5,,0.7\n2,,0.3,0.4\n")
        with pytest.raises(FormatError, match="line 1: non-numeric field"):
            parse_ucr(str(path))

    def test_one_trailing_separator_is_allowed(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1,0.5,0.7,\n2,0.3,0.4,\n")
        assert parse_ucr(str(path)).input_len == 2
        path.write_text("1,0.5,0.7,,\n2,0.3,0.4,,\n")
        with pytest.raises(FormatError, match="line 1: non-numeric field"):
            parse_ucr(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="empty"):
            parse_ucr(str(path))

    def test_float_looking_integer_labels_accepted(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.0000000e+00, 0.5, 0.5\n2.0, 1.0, 1.0\n")
        d = parse_ucr(str(path))
        assert d.label_names == (1, 2)

    def test_roundtrip_bit_exact(self, tmp_path):
        d = small_dataset(p=8, k=5, seed=3)
        path = tmp_path / "out.txt"
        write_ucr(d, str(path))
        back = parse_ucr(str(path), name=d.name, split=d.split)
        assert np.array_equal(back.patterns, d.patterns)
        assert np.array_equal(back.labels, d.labels)
        assert back.label_names == d.label_names


class TestNormalize:
    def test_self_stats_give_zero_mean_unit_std(self):
        d = small_dataset(p=50, k=7, seed=1)
        out = normalize(d, d)
        assert np.abs(out.patterns.mean(axis=0)).max() < 1e-12
        assert np.abs(out.patterns.std(axis=0) - 1.0).max() < 1e-9

    def test_constant_dataset_unchanged(self):
        d = Dataset(
            name="const",
            patterns=np.full((4, 3), 2.5),
            labels=np.array([0, 1, 0, 1]),
            label_names=(0, 1),
        )
        out = normalize(d, d)
        assert np.array_equal(out.patterns, d.patterns)

    def test_train_stats_leave_test_uncentered(self):
        train = small_dataset(p=40, k=6, seed=2)
        g = np.random.default_rng(9)
        test = Dataset(
            name="toy",
            patterns=g.standard_normal((30, 6)) + 5.0,
            labels=np.arange(30) % 2,
            label_names=(-1, 1),
            split="test",
        )
        out = normalize(test, train)
        assert np.abs(out.patterns.mean(axis=0)).max() > 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalize(small_dataset(k=10), small_dataset(k=11))


class TestInjectNoise:
    def test_noop_guard_at_high_snr(self):
        d = small_dataset()
        out = inject_noise(d, NoiseSpec(snr_db=300.0, seed=1))
        assert np.array_equal(out.patterns, d.patterns)

    def test_unit_power_zero_db_noise_variance(self):
        # One pattern of constant 1.0: signal power 1, so sigma at 0 dB is 1.
        d = Dataset(
            name="unit",
            patterns=np.vstack([np.ones(20000), np.ones(20000)]),
            labels=np.array([0, 1]),
            label_names=(0, 1),
        )
        out = inject_noise(d, NoiseSpec(snr_db=0.0, seed=4))
        noise = out.patterns - d.patterns
        assert noise.var() == pytest.approx(1.0, rel=0.05)
        assert noise.mean() == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("snr", [50.0, 10.0, 1.0, 0.5])
    def test_measured_snr_roundtrip(self, snr):
        train, _ = make_synthetic(n_train=100, n_test=2, length=128, seed=8)
        noised = inject_noise(train, NoiseSpec(snr_db=snr, seed=2))
        assert measured_snr(train, noised) == pytest.approx(snr, abs=0.5)

    def test_labels_and_shape_untouched(self):
        d = small_dataset(p=12, k=30)
        out = inject_noise(d, NoiseSpec(snr_db=1.0, seed=3))
        assert np.array_equal(out.labels, d.labels)
        assert out.patterns.shape == d.patterns.shape
        assert out.label_names == d.label_names

    def test_lower_snr_means_strictly_more_noise_power(self):
        d = small_dataset(p=20, k=50, seed=6)
        powers = []
        for snr in (50.0, 10.0, 1.0, 0.5):
            out = inject_noise(d, NoiseSpec(snr_db=snr, seed=7))
            powers.append(np.sum((out.patterns - d.patterns) ** 2))
        assert powers == sorted(powers)
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_all_zero_pattern_stays_zero(self):
        d = Dataset(
            name="z",
            patterns=np.vstack([np.zeros(16), np.ones(16)]),
            labels=np.array([0, 1]),
            label_names=(0, 1),
        )
        out = inject_noise(d, NoiseSpec(snr_db=10.0, seed=5))
        assert np.array_equal(out.patterns[0], np.zeros(16))
        assert not np.array_equal(out.patterns[1], np.ones(16))

    def test_deterministic_under_seed(self):
        d = small_dataset(p=9, k=21, seed=10)
        a = inject_noise(d, NoiseSpec(snr_db=5.0, seed=11))
        b = inject_noise(d, NoiseSpec(snr_db=5.0, seed=11))
        assert np.array_equal(a.patterns, b.patterns)

    def test_each_split_draws_its_own_noise_stream(self):
        train = small_dataset(split="train")
        test = small_dataset(split="test")
        spec = NoiseSpec(snr_db=1.0, seed=1)
        a, b = inject_noise(train, spec), inject_noise(test, spec)
        assert not np.array_equal(a.patterns, train.patterns)
        assert not np.array_equal(b.patterns - test.patterns, a.patterns - train.patterns)


class TestMeasuredSnr:
    def test_identical_gives_infinity(self):
        d = small_dataset()
        assert measured_snr(d, d) == math.inf

    def test_strongest_level_band(self):
        train, _ = make_synthetic(n_train=120, n_test=2, length=128, seed=12)
        noised = inject_noise(train, NoiseSpec(snr_db=0.5, seed=13))
        assert 0.3 <= measured_snr(train, noised) <= 0.7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            measured_snr(small_dataset(p=4), small_dataset(p=5))


class TestDatasetInvariants:
    def test_patterns_are_immutable(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.patterns[0, 0] = 99.0

    def test_callers_arrays_stay_writeable(self):
        # Both arrays are C-ordered with the dataset's dtypes, so neither is copied.
        patterns, labels = np.zeros((3, 2)), np.array([0, 1, 0])
        d = Dataset(name="toy", patterns=patterns, labels=labels, label_names=(0, 1))
        assert np.shares_memory(d.patterns, patterns) and np.shares_memory(d.labels, labels)
        assert patterns.flags.writeable and labels.flags.writeable
        assert not d.patterns.flags.writeable and not d.labels.flags.writeable

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                patterns=np.zeros((3, 2)),
                labels=np.array([0, 1]),
                label_names=(0, 1),
            )

    def test_labels_must_be_covered_by_names(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                patterns=np.zeros((2, 2)),
                labels=np.array([0, 2]),
                label_names=(0, 1),
            )


class TestParseUcrBoundaries:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"1,0.1,0.2,0.3\n2,0.4,0.5,0.6\n1,{token},0.2,0.3\n")
        with pytest.raises(FormatError, match="line 3: non-finite"):
            parse_ucr(str(path))

    def test_non_utf8_file_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(FormatError, match=r"bad\.txt: not UTF-8"):
            parse_ucr(str(path))

    def test_non_finite_label_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,0.1,0.2\nnan,0.4,0.5\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_ucr(str(path))

    def test_known_label_names_fix_the_class_ids(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text("2,0.1,0.2\n2,0.3,0.4\n")
        alone = parse_ucr(str(path))
        shared = parse_ucr(str(path), label_names=(1, 2))
        assert alone.label_names == (2,) and list(alone.labels) == [0, 0]
        assert shared.label_names == (1, 2) and list(shared.labels) == [1, 1]

    def test_label_outside_known_names_rejected(self, tmp_path):
        path = tmp_path / "test.txt"
        path.write_text("1,0.1,0.2\n3,0.3,0.4\n")
        with pytest.raises(FormatError, match=r"\[3\]"):
            parse_ucr(str(path), label_names=(1, 2))


    def test_labels_beyond_float_precision_stay_distinct(self, tmp_path):
        big = 2**53
        path = tmp_path / "big.txt"
        path.write_text(f"{big},0.1\n{big + 1},0.2\n1.0000000e+00,0.3\n")
        d = parse_ucr(str(path))
        assert d.label_names == (1, big, big + 1)
        assert list(d.labels) == [1, 2, 0]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ucrprop")


# Fragments of UCR-like text, so examples reach past the first parse step.
_UCR_TOKENS = st.sampled_from(
    ["1", "-2", "7", "0.5", "-1.25e-3", "1.0", "1e400", "nan", "x", "", ",", "\t", " ", "\n"]
)


class TestParseUcrProperties:
    @given(
        raw=st.one_of(
            st.binary(max_size=300),
            st.lists(_UCR_TOKENS, max_size=40).map(lambda ts: "".join(ts).encode()),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_bytes_load_or_raise_format_error(self, scratch, raw):
        path = scratch / "case.txt"
        path.write_bytes(raw)
        try:
            parse_ucr(str(path))
        except FormatError:
            pass

    @given(
        names=st.lists(st.integers(), min_size=1, max_size=4, unique=True),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_write_then_parse_is_the_identity(self, scratch, names, data):
        p = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, 4))
        values = data.draw(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p * k, max_size=p * k)
        )
        labels = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=p, max_size=p))
        d = Dataset(
            name="prop",
            patterns=np.array(values).reshape(p, k),
            labels=labels,
            label_names=tuple(names),
            split="train",
        )
        path = str(scratch / "prop_TRAIN.txt")
        write_ucr(d, path)
        back = parse_ucr(path, split="train", label_names=d.label_names)
        assert back.name == d.name and back.split == d.split
        assert back.label_names == d.label_names
        assert np.array_equal(back.labels, d.labels)
        assert back.patterns.tobytes() == d.patterns.tobytes()


# Labels exact only as integers, float-looking labels, and non-labels.
_LABEL_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from([str(2**53), str(2**53 + 1), str(-(2**53) - 1), str(2**64), "+7"]),
    st.sampled_from(["1.0", "2.0000000e+00", "-1.0", "9007199254740993.0", "1e1"]),
    st.sampled_from(["1.5", "nan", "inf", "1e400", "x", ""]),
)
_FINITE_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_VALUE_TEXT = st.one_of(
    *[_FINITE_TEXT] * 8,
    st.sampled_from(["0.5", "-1.25e-3", " 2", "1_0", "1e400", "nan", "-inf", "x", "", " "]),
)
_SEPARATORS = (",", ", ", "\t", " ", "  ", " \t", ",\t")


@st.composite
def _ucr_texts(draw) -> str:
    """UCR-like text: mostly rows of one width and separator, with blank
    lines, blank fields, padding, ragged rows and stray separators."""
    width = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4]))
    file_sep = draw(st.sampled_from(_SEPARATORS))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t  "])))
            continue
        n = width if kind == "row" else draw(st.integers(0, 5))
        fields = [draw(_LABEL_TEXT)] + [draw(_VALUE_TEXT) for _ in range(n)]
        sep = draw(st.sampled_from([file_sep] * 20 + list(_SEPARATORS)))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", "", " ", "\t", ","]))
        lines.append(lead + sep.join(fields) + trail)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _parse_outcome(parse, path, label_names):
    """What a parser makes of a file: the Dataset's fields, or its error message."""
    try:
        d = parse(path, label_names=label_names)
    except FormatError as exc:
        return str(exc)
    return (d.name, d.split, d.label_names, d.labels.tobytes(),
            d.patterns.shape, d.patterns.tobytes())


class TestParseUcrMatchesPerLineParser:
    @given(
        text=_ucr_texts(),
        label_names=st.one_of(st.none(), st.just((-1, 0, 1, 2, 2**53, 2**53 + 1))),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_dataset_or_same_error(self, scratch, text, label_names):
        path = scratch / "same_TRAIN.txt"
        path.write_text(text, encoding="utf-8")
        assert _parse_outcome(parse_ucr, str(path), label_names) == _parse_outcome(
            parse_ucr_per_line, str(path), label_names
        )

    def test_same_dataset_on_an_earthquakes_sized_file(self, scratch):
        d = small_dataset(p=322, k=512, seed=9)
        path = str(scratch / "eq_TRAIN.txt")
        write_ucr(d, path)
        assert _parse_outcome(parse_ucr, path, None) == _parse_outcome(
            parse_ucr_per_line, path, None
        )
