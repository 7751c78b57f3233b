from decimal import Decimal

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgsr import InputError, ParseError, textio


class TestMatrixRoundTrip:
    def test_lossless_17_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = np.concatenate([
            rng.normal(size=(3, 4)) * 1e-12,
            rng.normal(size=(3, 4)) * 1e15,
            rng.normal(size=(3, 4)),
        ])
        path = tmp_path / "m.csv"
        textio.write_matrix(path, matrix)
        assert np.array_equal(textio.read_matrix(path), matrix)

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("col_a,col_b\n1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(textio.read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_cites_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            textio.read_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="columns"):
            textio.read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            textio.read_matrix(path)

    @pytest.mark.parametrize("shape", [(7, 9), (1, 9), (9, 1)])
    @pytest.mark.parametrize("delimiter", [","])
    def test_bytes_equal_per_value_formatting(self, tmp_path, shape, delimiter):
        rng = np.random.default_rng(1)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
        rest = rng.normal(size=63) * 10.0 ** rng.integers(-20, 20, size=63)
        size = shape[0] * shape[1]
        matrix = rng.permutation(np.concatenate([special, rest])[:size]).reshape(shape)
        want = "".join(delimiter.join(textio.format_float(v) for v in row) + "\n"
                       for row in matrix)
        path = tmp_path / "m.csv"
        textio.write_matrix(path, matrix)
        assert path.read_bytes() == want.encode("utf-8")
        textio.write_mask(path, matrix > 0)
        assert path.read_text() == "".join(
            delimiter.join(textio.format_float(v) for v in row) + "\n"
            for row in (matrix > 0).astype(float))


def _per_value(matrix):
    """The bytes of ``matrix`` written one :func:`textio.format_float` at a time."""
    return "".join(",".join(textio.format_float(v) for v in row) + "\n"
                   for row in matrix).encode("utf-8")


def _edge_values():
    """Powers of ten and their float neighbours, 18th-digit ties, integers, and specials."""
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    around = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    ints = np.random.default_rng(5).integers(10 ** 15, 2 ** 51, size=200).astype(float)
    ties = np.concatenate([ints + 0.25, ints + 0.75])  # 16 integer digits: 17 digits end on a tie
    assert np.array_equal(ties - np.tile(ints, 2), np.repeat([0.25, 0.75], ints.size))  # exact
    values = np.concatenate([around, ties, ints, np.arange(1001.0), [5e-324, 0.1, 1 / 3, 0.0]])
    return np.concatenate([values, -values, [np.nan, np.inf, -np.inf]])


_BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64)))


class TestWriteMatrixFormatting:
    """``write_matrix`` renders most values in numpy; its bytes are still ``'%.17g'``'s."""

    @settings(max_examples=200, deadline=None)
    @given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                           max_side=12),
                             elements=st.one_of(_BITS, st.floats(), st.floats(-1e17, 1e17))))
    def test_bytes_equal_per_value_format_float(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("w") / "m.csv"
        textio.write_matrix(path, matrix)
        assert path.read_bytes() == _per_value(matrix)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (1, 1), (3, 40000), (265, 302)])
    def test_edge_values_in_every_shape(self, tmp_path, shape):
        rng = np.random.default_rng(11)
        pool = np.concatenate([
            _edge_values(),
            rng.normal(size=2000) * 10.0 ** rng.uniform(-6, 18, size=2000),
            rng.integers(0, 2 ** 64, size=500, dtype=np.uint64).view(np.float64),
        ])
        matrix = rng.choice(pool, size=shape)
        matrix.flat[: min(matrix.size, pool.size)] = pool[: matrix.size]
        textio.write_matrix(tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.csv").read_bytes() == _per_value(matrix)

    @pytest.mark.parametrize("miss", [-1, 1])
    def test_a_log10_one_off_is_corrected(self, tmp_path, monkeypatch, miss):
        """The decimal exponent starts from log10, which a libm may round across 10**k."""
        matrix = _edge_values()[None, :]

        def log10(a):  # the exact exponent, off by ``miss``
            return np.array([Decimal(v).adjusted() for v in a.tolist()], float) + miss

        monkeypatch.setattr(np, "log10", log10)
        textio.write_matrix(tmp_path / "m.csv", matrix)
        monkeypatch.undo()
        assert (tmp_path / "m.csv").read_bytes() == _per_value(matrix)

    @settings(max_examples=100, deadline=None)
    @given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                             elements=st.one_of(_BITS.filter(np.isfinite),
                                                st.floats(allow_nan=False, allow_infinity=False))))
    def test_read_gives_back_every_bit(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("r") / "m.csv"
        textio.write_matrix(path, matrix)
        assert textio.read_matrix(path).view(np.uint64).tolist() == matrix.view(np.uint64).tolist()


def _bits(matrix):
    return np.asarray(matrix, dtype=float).view(np.uint64).tolist()


def _per_token(path):
    """float() of each token of a comma-separated file, one at a time."""
    return np.array([[float(tok) for tok in line.split(",")]
                     for line in path.read_text().splitlines()])


def _write_tokens(path, tokens):
    """Write a 2-D list of token strings as comma-separated lines; return float() of each."""
    path.write_text("".join(",".join(row) + "\n" for row in tokens))
    return np.array([[float(tok) for tok in row] for row in tokens])


def _format(values, fmt):
    return [repr(v) if fmt == "repr" else fmt % v for v in np.asarray(values, float).tolist()]


_FORMATS = ["repr", "%.17g", "%.6f", "%.20g", "%.3e"]


def _ties():
    """Decimals of 19 digits or fewer that lie halfway between two doubles, and their negatives."""
    ties = ["2251799813685248.25", "2251799813685248.75", "4503599627370496.5",
            "18014398509481986.0", "9007199254740993"]
    rng = np.random.default_rng(21)
    for lo, hi, frac in ((2 ** 51, 2 ** 52, [".25", ".75"]), (2 ** 52, 2 ** 53, [".5"])):
        ints = rng.integers(lo, hi, size=40).tolist()
        ties += [f"{i}{f}" for i in ints for f in frac]
    ties += [str(2 * i + 1) for i in rng.integers(2 ** 52, 2 ** 53, size=40).tolist()]
    return ties + ["-" + t for t in ties]


def _edge_tokens():
    """Tokens at the reader's limits: ties, 18-20 significant digits, 22-23 fraction digits,
    random decimals of up to 26 digits, leading zeros, signed zeros, a bare point at either
    end, exponents and specials."""
    rng = np.random.default_rng(23)
    digits = lambda n: "".join(map(str, rng.integers(0, 10, size=n).tolist()))  # noqa: E731
    tokens = _ties()
    for n in (18, 19, 20):  # significant digits, the point anywhere
        for _ in range(60):
            text = str(rng.integers(1, 10)) + digits(n - 1)
            point = int(rng.integers(0, n + 1))
            tokens.append(text[:point] + "." + text[point:])
    for k in (22, 23):  # fraction digits
        tokens += [f"{int(rng.integers(0, 10 ** 4))}.{digits(k)}" for _ in range(20)]
    for n in rng.integers(1, 27, size=3000).tolist():  # up to 26 digits, the point anywhere
        text, point = digits(n), int(rng.integers(0, n + 1))
        tokens.append(("-" if rng.random() < 0.5 else "") + text[:point] + "." + text[point:])
    tokens += ["0.00012345678901234567", "0000000000000000000000001", "000.000000000000000000001",
               "-0", "-0.0", "0", "0.0", "5.", ".5", "-5.", "-.5", "0.", ".0", "1e-05", "2E+3",
               "+1.5", "nan", "-inf", "1" + "0" * 24, "99999999999999999.9", "999999999999999999"]
    return tokens


class TestReadMatrixBits:
    """``read_matrix`` gives every token the bits of ``float(token)``."""

    @settings(max_examples=150, deadline=None)
    @given(matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                             elements=st.one_of(_BITS, st.floats())),
           fmt=st.sampled_from(["write_matrix"] + _FORMATS))
    def test_bits_equal_per_token_float(self, tmp_path_factory, matrix, fmt):
        path = tmp_path_factory.mktemp("b") / "m.csv"
        if fmt == "write_matrix":
            textio.write_matrix(path, matrix)
        else:
            _write_tokens(path, [_format(row, fmt) for row in matrix])
        assert _bits(textio.read_matrix(path)) == _bits(_per_token(path))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 40000), (265, 302)])
    def test_edge_tokens_in_every_shape(self, tmp_path, shape):
        """(3, 40000) has rows wider than a block; (265, 302) crosses block boundaries."""
        rng = np.random.default_rng(29)
        values = np.concatenate([
            _edge_values(),
            rng.normal(size=2000) * 10.0 ** rng.uniform(-6, 18, size=2000),
            rng.integers(0, 2 ** 64, size=500, dtype=np.uint64).view(np.float64),
        ])
        pool = _edge_tokens() + [tok for fmt in _FORMATS for tok in _format(values, fmt)]
        tokens = [pool[i % len(pool)] for i in range(shape[0] * shape[1])]
        if len(tokens) < len(pool):
            tokens = rng.choice(pool, size=len(tokens)).tolist()
        rng.shuffle(tokens)
        want = _write_tokens(tmp_path / "m.csv",
                             [tokens[r * shape[1]:(r + 1) * shape[1]] for r in range(shape[0])])
        assert _bits(textio.read_matrix(tmp_path / "m.csv")) == _bits(want)


def _count_float_tokens(monkeypatch):
    """Record each token that :func:`read_matrix` hands to float() one at a time."""
    sent = []
    per_token = textio._float_tokens

    def record(block, starts, ends):
        sent.extend(block[a:b] for a, b in zip(starts.tolist(), ends.tolist()))
        return per_token(block, starts, ends)

    monkeypatch.setattr(textio, "_float_tokens", record)
    return sent


def test_fixed_notation_values_send_no_token_to_float(tmp_path, monkeypatch):
    """Every value that write_matrix writes without an exponent reads in numpy."""
    rng = np.random.default_rng(37)
    values = np.concatenate([
        rng.uniform(1e-4, 1e-3, size=3000), 10.0 ** rng.uniform(-4, 17, size=20000),
        np.nextafter(1e17, 0.0) * rng.uniform(0.5, 1.0, size=996), [0.0, -0.0, 1.0, 1e-4],
    ])
    matrix = (values * np.where(rng.random(values.size) < 0.5, -1.0, 1.0)).reshape(-1, 8)
    textio.write_matrix(tmp_path / "m.csv", matrix)
    sent = _count_float_tokens(monkeypatch)
    assert _bits(textio.read_matrix(tmp_path / "m.csv")) == _bits(matrix)
    assert sent == []


def test_ties_are_settled_by_float(tmp_path, monkeypatch):
    """A decimal halfway between two doubles is flagged and read by float()."""
    ties = _ties()
    want = _write_tokens(tmp_path / "m.csv", [[tie] for tie in ties])
    sent = _count_float_tokens(monkeypatch)
    assert _bits(textio.read_matrix(tmp_path / "m.csv")) == _bits(want)
    assert sorted(sent) == sorted(tie.encode() for tie in ties)


_PARITY_CASES = {
    "blank lines": "1,2\n\n3,4\n\n",
    "whitespace-only lines": "1,2\n   \n\t\n3,4\n",
    "blank first line": "\na,b\n1,2\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "lone cr": "1,2\r3,4\r",
    "lone cr in the header": "a\rb,c\n1,2\n",
    "padded tokens": " 1.5 ,2\n3, 1.5 \n",
    "nan and inf": "nan,inf\n-inf,-nan\nNaN,Infinity\n",
    "underscore": "1_0,2\n3,4\n",
    "hash": "1,#\n",
    "hash header": "#,x\n1,2\n",
    "trailing delimiter": "1,2,\n3,4,\n",
    "empty token": "1,,2\n",
    "ragged": "1,2\n3\n",
    "ragged header": "a,b,c\n1,2\n",
    "header only": "a,b\n",
    "only blank lines": "\n  \n",
    "no final newline": "1,2\n3,4",
    "single column": "v\n1\n2\n",
    "late header": "1,2\na,b\n",
    "exponents": "1e-05,2E+3\n",
    "plus sign": "+1.5,2\n",
    "bare points": ".5,5.\n",
    "signed zeros": "-0,-0.0\n",
    "lone minus": "-,1\n",
    "two points": "1..2,3\n",
    "inner minus": "1-2,3\n",
    "arabic-indic digit": "\u0661,2\n",
    "25 digits": "1234567890123456789012345,2\n",
}


@pytest.mark.parametrize("name", sorted(_PARITY_CASES))
def test_read_matrix_matches_token_reader(tmp_path, name):
    """The numpy parse gives the token reader's array, or the token reader's error."""
    path = tmp_path / "m.csv"
    path.write_bytes(_PARITY_CASES[name].encode("utf-8"))

    def outcome(read):
        try:
            matrix = read(path)
        except ParseError as exc:
            return str(exc)
        return matrix.dtype, matrix.shape, matrix.tobytes()

    assert outcome(textio.read_matrix) == outcome(lambda p: textio._read_matrix_tokens(p))


def test_well_formed_file_skips_the_token_reader(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    matrix = np.random.default_rng(3).normal(size=(5, 4))
    textio.write_matrix(path, matrix)
    path.write_text("a,b,c,d\n" + path.read_text())  # a header row, which the reader skips
    monkeypatch.setattr(textio, "_read_matrix_tokens", None)
    assert np.array_equal(textio.read_matrix(path), matrix)


class TestCoordinates:
    def test_round_trip_with_ids(self, tmp_path):
        coords = np.array([[12.5, -3.25], [0.0, 90.0]])
        path = tmp_path / "c.csv"
        path.write_text("node_id,latitude,longitude\nparis,12.5,-3.25\npole,0,90\n")
        ids, back = textio.read_coordinates(path)
        assert ids == ["paris", "pole"]
        assert np.array_equal(back, coords)

    def test_header_required(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        with pytest.raises(ParseError, match="header"):
            textio.read_coordinates(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("node_id,latitude\n0,1.0\n")
        with pytest.raises(ParseError):
            textio.read_coordinates(path)


class TestMask:
    def test_round_trip(self, tmp_path):
        mask = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = tmp_path / "j.csv"
        textio.write_mask(path, mask)
        assert np.array_equal(textio.read_mask(path), mask)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (265, 302)])
    def test_write_mask_bytes_are_write_matrix_bytes(self, tmp_path, shape):
        rng = np.random.default_rng(7)
        binary = (rng.random(shape) < 0.5).astype(float)
        signed = np.where(binary > 0, 1.0, -0.0)
        signed.flat[0] = -0.0
        non_binary = binary.copy()
        non_binary.flat[-1] = 0.5
        cases = {"zeros": np.zeros(shape), "ones": np.ones(shape), "binary": binary,
                 "bool": binary > 0, "negative zero": signed, "non-binary": non_binary}
        written = {}
        for name, mask in cases.items():
            textio.write_mask(tmp_path / "mask.csv", mask)
            textio.write_matrix(tmp_path / "matrix.csv", np.asarray(mask, dtype=float))
            written[name] = (tmp_path / "mask.csv").read_bytes()
            assert written[name] == (tmp_path / "matrix.csv").read_bytes(), name
        assert b"-0" in written["negative zero"]
        assert b"0.5" in written["non-binary"]

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text("0.5,1\n0,1\n")
        with pytest.raises(ParseError, match="0 or 1"):
            textio.read_mask(path)


class TestKeyValues:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("# a comment\nalpha=0.5\nname=run one\n\nseed=3 # trailing\n")
        values = textio.read_keyvalues(path)
        assert values == {"alpha": "0.5", "name": "run one", "seed": "3"}

    def test_write_formats_floats(self, tmp_path):
        path = tmp_path / "kv.txt"
        textio.write_keyvalues(path, {"x": 1.0 / 3.0, "label": "abc"})
        values = textio.read_keyvalues(path)
        assert float(values["x"]) == 1.0 / 3.0

    def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("#x=1\nout=runs/s#1\nlabel=#2\ntag=a\t# note\n  # indented\n")
        assert textio.read_keyvalues(path) == {"out": "runs/s#1", "label": "#2", "tag": "a"}

    @pytest.mark.parametrize("value", ["runs/s#1", "#2", "a=b", 1.0 / 3.0, None])
    def test_values_the_rule_allows_round_trip(self, tmp_path, value):
        path = tmp_path / "kv.txt"
        textio.check_keyvalue("key", value)
        textio.write_keyvalues(path, {"key": value})
        assert textio.read_keyvalues(path) == {"key": textio._cell(value)}

    @pytest.mark.parametrize("value", ["a #b", "a\t#b", " #b", "two\nlines", "cr\rhere",
                                       " lead", "trail ", "\ttab"])
    def test_a_value_that_would_not_read_back_is_not_written(self, tmp_path, value):
        path = tmp_path / "kv.txt"
        with pytest.raises(InputError, match="key="):
            textio.check_keyvalue("key", value)
        with pytest.raises(InputError):
            textio.write_keyvalues(path, {"ok": 1, "key": value})
        assert not path.exists()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("novalue\n")
        with pytest.raises(ParseError, match="line 1"):
            textio.read_keyvalues(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            textio.read_keyvalues(tmp_path / "nope.txt")


class TestLossTrace:
    def test_two_column_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        textio.write_loss_trace(path, [3.5, 2.0, 1.25])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,loss"
        assert lines[1].startswith("0,")
        assert len(lines) == 4
        back = textio.read_matrix(path)
        assert np.array_equal(back[:, 1], [3.5, 2.0, 1.25])
