"""Delimited-text serialization for coordinates, signals, masks, tables, and manifests.

All numeric output uses 17 significant digits so that values round-trip
losslessly through text. Fields are separated by commas. :func:`write_matrix`
renders each value that ``'%.17g'`` writes without an exponent in numpy, with
``'%.17g'``'s bytes, and every other value one at a time. :func:`read_matrix`
reads a file once as bytes and converts each plain decimal token in numpy,
with the bits ``float()`` gives it, and every other token one at a time.
Every reader takes UTF-8 text; any other byte is a :class:`ParseError`
naming its line.
"""

from __future__ import annotations

import io
import os
import re

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
_TEN = np.array([float(f"1e{k}") for k in range(-4, 23)])  # least double >= 10**k; exact if k >= 0
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


# --- read_matrix: float()'s bits in numpy -----------------------------------------------
# A token -?digits[.digits] (or .digits, digits.) of at most 24 digits whose digits, read as an
# integer S, are below 10**18, with k <= 22 of them after the point, reads as the double nearest
# S / 10**k; 10**k is exact for k <= 22. Its digits, right-aligned in a 24-byte window, read as
# six little-endian 4-digit words, so no array shift reaches 32 bits.
_BLOCK = 1 << 17  # bytes of whole lines per block: the temporaries stay in cache
_NOT_DIGIT_OR_SEP = bytes(sorted(set(range(256)) - set(b"0123456789,\n")))
_DIGIT_MASK = _words((b"\0" * (24 - n) + b"\x0f" * n for n in range(25)), 3).view("<u4")


def _quotient(s, k):
    """The double nearest each ``s / 10**k``, and whether it lies too near a tie to tell.

    ``s`` (int64, below 10**18) is ``x + lo`` with x its nearest double. Dekker's error-free
    product gives ``q * 10**k == p + err`` for q = fl(x / 10**k), so ``(x - p) - err + lo`` is
    the remainder s - q 10**k, and ``c = fl(q + t)``, t the remainder over 10**k, is within
    about 2**-103 c of s / 10**k. A c whose error ``(q - c) + t`` lies within 2**-98 c of half
    the gap to either neighbour (below a power of two that gap is halved) is flagged. The
    arithmetic runs in place: a fresh temporary costs more than the operation.
    """
    x = s.astype(float)
    lo = x.astype(np.int64)
    np.subtract(s, lo, out=lo)  # s - x, exact
    ten, ten_hi, ten_lo = (t[4:].take(k, mode="clip") for t in (_TEN, _TEN_HI, _TEN_LO))
    q = x / ten
    p = q * ten
    hi = q * _SPLIT  # Veltkamp's halves: q == hi + low
    low = hi - q
    hi -= low
    np.subtract(q, hi, out=low)
    err = hi * ten_hi
    err -= p
    hi *= ten_lo
    err += hi
    ten_hi *= low
    err += ten_hi
    low *= ten_lo
    err += low  # q * 10**k == p + err
    x -= p
    x -= err
    x += lo
    x /= ten  # t
    c = q + x
    q -= c
    q += x
    np.abs(q, out=q)  # c's error
    half = (c.view(np.uint64) & 0x7FF0000000000000).view(float)
    half *= 2.0 ** -53  # half the gap above c (c is 0 or at least 1e-22)
    np.multiply(c, 2.0 ** -98, out=p)
    np.subtract(q, half, out=err)
    np.abs(err, out=err)
    tie = err < p
    half *= 0.5
    q -= half
    np.abs(q, out=q)
    tie |= q < p
    return c, tie


def _float_tokens(block, starts, ends):
    """float() of each token ``block[start:end]``, one at a time."""
    return [float(block[a:b].decode("ascii")) for a, b in zip(starts.tolist(), ends.tolist())]


def _read_block(block, cols):
    """The values of ``block``, ASCII lines of ``cols`` comma-separated tokens, each with the
    bits float() gives it; None for any other line or a token that float() rejects."""
    a = np.frombuffer(block, np.uint8)
    at = np.flatnonzero(a - np.uint8(48) > 9)  # every byte that is not a digit
    ch = a[at]
    is_sep = (ch == 44) | (ch == 10)
    seps = np.flatnonzero(is_sep)  # a token ends at each
    n = seps.size
    lf = ch[seps] == 10
    if n % cols or not lf[cols - 1::cols].all() or np.count_nonzero(lf) != n // cols:
        return None
    ends = at[seps]
    length = np.diff(ends, prepend=-1)  # 1 + each token's length
    other = np.diff(seps, prepend=-1)  # 1 + the count of its bytes that are not digits
    values = a[ends - 1] - 48.0  # the value of a token of one digit
    rest = np.flatnonzero((length != 2) | (other != 1))
    if not rest.size:
        return values
    pick = slice(None) if rest.size == n else rest
    ends, seps, length = ends[pick], seps[pick], length[pick]
    n_digits = length - other[pick]
    starts = ends - length
    starts += 1
    neg = a[starts] == 45
    # In a token of digits, a '-' at its start and at most one '.', the byte before its end
    # that is not a digit is its point, if it has one. (The block's last byte, a line end,
    # stands before the first token.)
    point = ch[seps - 1] == 46
    k = ends - at[seps - 1]
    k -= 1
    k *= point
    slow = (n_digits == 0) | (n_digits > 24) | (k > 22)  # tokens for float(), one at a time
    n_minus, n_point = np.count_nonzero(ch == 45), np.count_nonzero(ch == 46)
    if (n + n_minus + n_point != ch.size or np.count_nonzero(neg) != n_minus
            or np.count_nonzero(point) != n_point):  # a token of another form
        minus = at[ch == 45]
        odd = np.concatenate([
            at[~is_sep & (ch - np.uint8(45) > 1)],  # a byte but a digit, ',', '\n', '-' or '.'
            minus[(a[minus - 1] != 44) & (a[minus - 1] != 10)],  # a '-' after a token's start
            at[1:][(ch[1:] == 46) & (ch[:-1] == 46)],  # a second point
        ])
        slow[np.searchsorted(ends, odd)] = True
    # Once the bytes that are neither digits nor separators are gone, token j ends at
    # ends[j] - seps[j] + j: a window of 24 bytes ends there.
    digits = b"\0" * 24 + block.translate(None, _NOT_DIGIT_OR_SEP)
    windows = np.ndarray((len(digits) - 23,), "V24", digits, strides=(1,))
    g = windows[ends - seps + rest].view("<u4").reshape(-1, 6)
    g &= _DIGIT_MASK.take(n_digits, axis=0, mode="clip")  # each digit's value, 0 left of it
    g *= 1 + (10 << 8)
    g >>= 8
    g &= 0x00FF00FF  # two-digit numbers in bytes 0 and 2
    g *= 1 + (100 << 16)
    g >>= 16  # four-digit numbers in the low halves of the <u8 words
    g8 = g.view("<u8")
    g8 *= 1 + (10 ** 4 << 32)
    d = g.reshape(-1, 3, 2)[:, :, 1]  # eight-digit numbers, in the high halves
    s = d[:, 0].astype(np.int64)
    s *= 10 ** 8
    s += d[:, 1]
    s *= 10 ** 8
    s += d[:, 2]
    c, tie = _quotient(s, k)
    np.negative(c, out=c, where=neg)
    values[pick] = c
    slow |= tie
    slow |= d[:, 0] > 99  # 10**18 or more: s wrapped
    if slow.any():
        try:
            values[rest[slow]] = _float_tokens(block, starts[slow], ends[slow])
        except ValueError:
            return None
    return values


def _read_lines(data, start):
    """The matrix of ``data[start:]``, ASCII lines of equal counts of numbers; None otherwise."""
    body = data[start:]
    if not body.endswith(b"\n"):
        body += b"\n"
    if not body.isascii():
        return None
    cols = body.count(b",", 0, body.index(b"\n")) + 1
    out = np.empty(np.count_nonzero(np.frombuffer(body, np.uint8) == 10) * cols)
    pos = done = 0
    while pos < len(body):
        end = body.find(b"\n", pos + _BLOCK) + 1 or len(body)
        values = _read_block(body[pos:end], cols)  # cols values per line, or None
        if values is None:
            return None
        out[done:done + values.size] = values
        pos, done = end, done + values.size
    return out.reshape(-1, cols)


def read_matrix(path) -> np.ndarray:
    """Read a numeric matrix; a leading non-numeric row is treated as a header.

    Blank lines are skipped and tokens may carry surrounding whitespace. A file
    of equal-width ASCII lines is read in numpy with float()'s bits per token;
    any other file is read token by token, which names the first line and
    column that is not a number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:  # a lone CR ends a line too
            return _read_matrix_tokens(path)
    start = data.find(b"\n") + 1 or len(data)
    try:
        first = data[:start].decode("utf-8")
    except UnicodeDecodeError:
        return _read_matrix_tokens(path)
    header = bool(first.strip()) and not _is_numeric_row(_split(first))
    matrix = _read_lines(data, start if header else 0)
    return _read_matrix_tokens(path) if matrix is None else matrix


def _lines(path):
    """The lines of a UTF-8 text file as ``open(path)`` gives them; a byte that is not
    UTF-8 is a :class:`ParseError` naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).read()
        line, byte = before.count("\n") + 1, data[exc.start]
        raise ParseError(f"{path}: line {line}: not UTF-8 text (byte 0x{byte:02x})") from None
    return io.StringIO(text, newline=None)


def _read_matrix_tokens(path) -> np.ndarray:
    """:func:`read_matrix` one token at a time, naming the first line and column it rejects."""
    rows = []
    width = None
    for lineno, line in enumerate(_lines(path), start=1):
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
    lines = [ln for ln in _lines(path) if ln.strip()]
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
    for lineno, line in enumerate(_lines(path), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}: line {lineno}: expected key=value, got {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out
