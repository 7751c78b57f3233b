"""Delimited-text serialization for coordinates, signals, masks, tables, and manifests.

All numeric output uses 17 significant digits so that values round-trip
losslessly through text. Fields are separated by commas. :func:`write_matrix`
renders each value that ``'%.17g'`` writes without an exponent in numpy, with
``'%.17g'``'s bytes, and every other value one at a time.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np

from .exceptions import InputError, ParseError

DELIMITER = ","


def format_float(x) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return f"{float(x):.17g}"


def _split(line: str) -> list[str]:
    return [tok.strip() for tok in line.rstrip("\n").split(DELIMITER)]


def _is_numeric_row(tokens) -> bool:
    try:
        for tok in tokens:
            float(tok)
    except ValueError:
        return False
    return True


# --- write_matrix: '%.17g' in numpy -----------------------------------------------
# '%.17g' writes a value in [1e-4, 1e17) as the 17 digits of d * 10**(e - 16), without an
# exponent. Its text fills a 40-byte slot of five little-endian words, NUL where no character
# goes: sign, "0.000" prefix and leading digit in word 0, then a digit every other byte, so
# the NUL after digit i (byte 7 + 2i) can hold the point.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a float64 into two 26-bit halves
_TEN = np.array([float(f"1e{k}") for k in range(-4, 21)])  # each the least double >= 10**k
_TEN_HI = _SPLIT * _TEN - (_SPLIT * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
_Q = np.arange(10000)
_GROUP = sum((48 + _Q // 10 ** (3 - i) % 10) << (16 * i) for i in range(4)).astype("<u8")
_TRAIL = sum(_Q % 10 ** i == 0 for i in range(1, 5))  # trailing zeros of a 4-digit group


def _words(chunks, n):  # byte strings, NUL-padded, as rows of n little-endian words
    return np.frombuffer(b"".join(c.ljust(8 * n, b"\0") for c in chunks), "<u8").reshape(-1, n)


# by (sign, e + 4, leading digit); a "0.000" prefix holds its point
_HEAD = _words(((sign + ("0.000"[:1 - e] if e < 0 else "").ljust(5, "\0") + str(lead)).encode()
                for sign in "\0-" for e in range(-4, 17) for lead in range(10)), 1)[:, 0]
_POINT = _words((b"\0" * (7 + 2 * e) + b"." if 0 <= e < 16 else b"" for e in range(-4, 17)), 5)
_KEEP = _words((b"\xff" * (5 + 2 * n) for n in range(18)), 5)  # the slot of the first n digits


def _decimal(a):
    """'%.17g's digits d (17, rounded half-even) and exponent e of each a in [1e-4, 1e17)."""
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
    e += a >= _TEN.take(e + 5)  # log10 may round across a power of ten
    e -= a < _TEN.take(e + 4)
    ten, hi, lo = _TEN.take(20 - e), _TEN_HI.take(20 - e), _TEN_LO.take(20 - e)  # 10**(16 - e)
    ah = _SPLIT * a - (_SPLIT * a - a)  # Veltkamp's halves: a == ah + al
    al = a - ah
    p = a * ten  # p + err == a * ten exactly (Dekker); p >= 1e16 is an even integer
    err = ((ah * hi - p) + ah * lo + al * hi) + al * lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64), e


def _render(flat, seps):
    """The text of a block of whole rows; ``seps[j]`` follows each value of column j."""
    a = np.abs(flat)
    fixed = (a >= 1e-4) & (a < 1e17)
    sel = np.flatnonzero(fixed)
    d, e = _decimal(a[sel])
    hi = d // 10 ** 8
    lead = hi // 10 ** 8
    g = np.empty((4, sel.size), np.intp)  # the four 4-digit groups after the leading digit
    g[1] = hi - lead * 10 ** 8
    g[3] = d - hi * 10 ** 8
    g[0::2] = g[1::2] // 10 ** 4
    g[1::2] -= g[0::2] * 10 ** 4
    zeros = _TRAIL.take(g[3])
    r = np.flatnonzero(zeros == 4)
    for j in (2, 1, 0):  # a group of zeros: count on into the group before it
        r = r[zeros[r] == 4 * (3 - j)]
        zeros[r] += _TRAIL.take(g[j, r])
    words = np.empty((sel.size, 5), "<u8")
    words[:, 0] = _HEAD.take((np.signbit(flat[sel]) * 21 + e + 4) * 10 + lead)
    words[:, 1:] = _GROUP.take(g).T
    words |= _POINT.take(e + 4, axis=0)
    words &= _KEEP.take(np.maximum(17 - zeros, e + 1), axis=0)  # integer digits stay
    if sel.size < flat.size:  # zeros, and values format_float writes
        words, fixed_words = np.zeros((flat.size, 5), "<u8"), words
        words[:, 0] = _HEAD.take(np.signbit(flat) * 210 + 40)  # "0" and "-0"
        words[sel] = fixed_words
    other = np.flatnonzero(~fixed & (a != 0))
    text = "".join(format_float(v).ljust(39, "\0") for v in flat[other].tolist())
    slots = words.view(np.uint8)
    slots[other, :-1] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 39)
    slots.reshape(-1, seps.size, 40)[:, :, -1] = seps
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def write_matrix(path, matrix):
    """Write a 2-D array, one row per line, each value as :func:`format_float` writes it."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = matrix.shape
    seps = np.frombuffer((DELIMITER * (cols - 1) + "\n").encode("ascii"), np.uint8)
    with open(path, "w", encoding="utf-8") as fh:
        if cols == 0:
            fh.write("\n" * rows)
            return
        step = max(1, 4096 // cols)  # blocks of about 4096 values keep the temporaries in cache
        for r in range(0, rows, step):
            fh.write(_render(matrix[r:r + step].ravel(), seps))


def read_matrix(path) -> np.ndarray:
    """Read a numeric matrix; a leading non-numeric row is treated as a header.

    Blank lines are skipped and tokens may carry surrounding whitespace.
    numpy's parser reads a file it accepts; any other file is read token by
    token, which names the first line and column that is not a number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    header = bool(first.strip()) and not _is_numeric_row(_split(first))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # a file without data rows only warns
            return np.loadtxt(path, delimiter=DELIMITER, comments=None, ndmin=2,
                              skiprows=int(header), encoding="utf-8")
    except (ValueError, UserWarning):
        return _read_matrix_tokens(path)


def _read_matrix_tokens(path) -> np.ndarray:
    """:func:`read_matrix` one token at a time, naming the first line and column it rejects."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            tokens = _split(line)
            if lineno == 1 and not _is_numeric_row(tokens):
                continue  # auto-detected header
            try:
                values = [float(tok) for tok in tokens]
            except ValueError as exc:
                bad = next(i for i, t in enumerate(tokens) if not _is_numeric_row([t]))
                raise ParseError(
                    f"{path}: line {lineno}, column {bad + 1}: not a number: {tokens[bad]!r}"
                ) from exc
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def write_coordinates(path, coords):
    """Write one node per row, ids 0..N-1, under the required node_id,latitude,longitude header."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InputError(f"coordinates must be N x 2, got shape {coords.shape}")
    write_table(path, ("node_id", "latitude", "longitude"),
                zip(range(coords.shape[0]), coords[:, 0], coords[:, 1]))


def read_coordinates(path):
    """Read a coordinate file.

    The header row is mandatory; node order in the file fixes the node index.
    Returns (ids, coords): the node-id strings and an N x 2 float array.
    """
    ids = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty coordinate file")
    header = _split(lines[0])
    if len(header) != 3:
        raise ParseError(f"{path}: line 1: expected 3 header columns, found {len(header)}")
    if _is_numeric_row(header):
        raise ParseError(f"{path}: line 1: header row required (node_id,latitude,longitude)")
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = _split(line)
        if len(tokens) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 columns, found {len(tokens)}")
        try:
            lat, lon = float(tokens[1]), float(tokens[2])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-numeric coordinate {tokens[1:]!r}") from exc
        ids.append(tokens[0])
        rows.append((lat, lon))
    if not rows:
        raise ParseError(f"{path}: no coordinate rows")
    return ids, np.asarray(rows, dtype=float)


def write_mask(path, mask):
    """Write a 0/1 mask with :func:`write_matrix`'s bytes.

    When every entry is +0.0 or 1.0, the text is filled into one byte buffer
    and written in one call. Any other entry, ``-0.0`` (written ``-0``)
    included, takes :func:`write_matrix`.
    """
    mask = np.atleast_2d(np.asarray(mask, dtype=float))
    ones = mask == 1.0
    if mask.shape[1] == 0 or not np.all(ones | ((mask == 0.0) & ~np.signbit(mask))):
        write_matrix(path, mask)
        return
    text = np.full((mask.shape[0], 2 * mask.shape[1]), ord(DELIMITER), dtype=np.uint8)
    text[:, 0::2] = ones.view(np.uint8) + ord("0")
    text[:, -1] = ord("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.tobytes().decode("ascii"))


def read_mask(path) -> np.ndarray:
    mask = read_matrix(path)
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ParseError(f"{path}: mask entries must be 0 or 1")
    return mask


def write_loss_trace(path, trace):
    """Write a loss trace as two columns: iteration index, loss value."""
    write_table(path, ("iteration", "loss"), enumerate(np.asarray(trace, dtype=float)))


def _cell(value) -> str:
    """Floats get the 17-digit treatment; anything else its ``str``."""
    return format_float(value) if isinstance(value, (float, np.floating)) else str(value)


def write_table(path, header, rows):
    """Write a table of heterogeneous rows; floats get the 17-digit treatment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DELIMITER.join(str(h) for h in header) + "\n")
        fh.writelines(DELIMITER.join(map(_cell, row)) + "\n" for row in rows)


_COMMENT = re.compile(r"(?:^|\s)#")  # a '#' at the start of a line or after whitespace
_UNREADABLE = re.compile(r"[\r\n]|\s#|^\s|\s$")  # a value holding any would not read back


def check_keyvalue(key, value):
    """Raise :class:`InputError` for a value that :func:`read_keyvalues` cannot read back.

    Such a value holds a line break, or a '#' after whitespace, which would start a
    comment, or it starts or ends with whitespace, which the reader strips.
    """
    text = _cell(value)
    if _UNREADABLE.search(text):
        raise InputError(f"{key}={text!r}: a key=value file cannot hold a line break, "
                         "a '#' after whitespace, or leading or trailing whitespace")


def write_keyvalues(path, mapping):
    """Write a flat key=value text file (manifests, config echoes, metrics).

    Every value must pass :func:`check_keyvalue`; nothing is written otherwise.
    """
    for key, value in mapping.items():
        check_keyvalue(key, value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={_cell(value)}\n" for key, value in mapping.items())


def read_keyvalues(path) -> dict:
    """Read a flat key=value file; blank lines are skipped.

    A '#' starts a comment at the start of a line or after whitespace, so
    ``seed=3 # note`` reads ``seed=3`` while ``out=runs/a#1`` keeps its '#'.
    """
    if not os.path.exists(path):
        raise ParseError(f"{path}: no such file")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = _COMMENT.split(line, 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError(f"{path}: line {lineno}: expected key=value, got {line.rstrip()!r}")
            key, value = stripped.split("=", 1)
            out[key.strip()] = value.strip()
    return out
