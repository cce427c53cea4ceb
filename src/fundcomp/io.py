"""File ingestion and export: signal CSV, WAV (PCM), polynomial spec JSON."""

from __future__ import annotations

import json
import math
import wave

import numpy as np

from ._g17 import format_g17
from .errors import InputFormatError
from .signal_model import SampledSignal, TrigPolynomial, TWO_PI

# _write_rows formats this many values at a time. Its transients, about 150
# bytes a value, stay in the heap after an export; at 200 bytes a value,
# 8192-value chunks raised analyze's peak RSS by 0.7 MB over repeated calls,
# and 4096 to 6144 by 0.1.
_CSV_CHUNK_VALUES = 6144


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _float_lines(path, lines, start: int, noun: str) -> list[float]:
    """The value on each non-blank line of `lines`, the first numbered
    `start`; a malformed or non-finite value is an input error at its line."""
    values = []
    for lineno, line in enumerate(lines, start=start):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: malformed {noun} {text!r}") from None
        if not math.isfinite(value):
            raise InputFormatError(f"{path}:{lineno}: non-finite {noun} {text!r}")
        values.append(value)
    return values


def read_signal_csv(path) -> SampledSignal:
    """CSV signal: first line 'sample_rate,<value>', then one sample per line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputFormatError(f"{path}: empty file")
    head = lines[0].split(",")
    if len(head) != 2 or head[0] != "sample_rate":
        raise InputFormatError(
            f"{path}:1: expected header 'sample_rate,<value>'")
    try:
        rate = float(head[1])
    except ValueError:
        rate = math.nan
    if not _finite_positive(rate):
        raise InputFormatError(f"{path}:1: bad sample rate {head[1]!r}")
    samples = _float_lines(path, lines[1:], 2, "sample")
    if len(samples) < 2:
        raise InputFormatError(f"{path}: need at least 2 samples")
    return SampledSignal(np.array(samples), rate)


def _write_rows(fh, table: np.ndarray) -> None:
    """Write each row of a 2-D float table to the binary file fh: its values
    printed by '%.17g', joined by ',' and ended by a newline.

    The text is byte for byte that of the % operator (`_g17`). It is made
    `_CSV_CHUNK_VALUES` values at a time, so the whole text is never held.
    """
    values = np.ravel(np.asarray(table, dtype=np.float64))
    n_cols = table.shape[1]
    seps = np.full(n_cols, ord(","), dtype=np.uint64)
    seps[-1] = ord("\n")
    seps = np.tile(seps, _CSV_CHUNK_VALUES // n_cols + 2)
    for start in range(0, values.size, _CSV_CHUNK_VALUES):
        chunk = values[start:start + _CSV_CHUNK_VALUES]
        col = start % n_cols
        fh.write(format_g17(chunk, seps[col:col + chunk.size]))


def write_signal_csv(signal: SampledSignal, path) -> None:
    """The read_signal_csv format, samples printed with 17 significant digits."""
    with open(path, "wb") as fh:
        fh.write(f"sample_rate,{signal.sample_rate:.17g}\n".encode("ascii"))
        _write_rows(fh, signal.samples[:, None])


def read_wav(path) -> SampledSignal:
    """PCM WAV, 16/24/32-bit; first channel, normalized by integer full scale."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise InputFormatError(f"{path}: not a readable WAV file ({exc})") from None
    if width == 2:
        data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
        scale = 2 ** 15
    elif width == 4:
        data = np.frombuffer(raw, dtype="<i4").astype(np.float64)
        scale = 2 ** 31
    elif width == 3:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        data = (b[:, 0].astype(np.int64)
                | (b[:, 1].astype(np.int64) << 8)
                | (b[:, 2].astype(np.int64) << 16))
        data = np.where(data >= 2 ** 23, data - 2 ** 24, data).astype(np.float64)
        scale = 2 ** 23
    else:
        raise InputFormatError(f"{path}: unsupported PCM width {8 * width} bits")
    data = data.reshape(-1, n_channels)[:, 0] / scale
    if data.size < 2:
        raise InputFormatError(f"{path}: need at least 2 samples")
    if not np.all(np.isfinite(data)):
        raise InputFormatError(f"{path}: non-finite sample")
    if not _finite_positive(rate):
        raise InputFormatError(f"{path}: bad sample rate {rate}")
    return SampledSignal(data, float(rate))


def read_signal(path) -> SampledSignal:
    p = str(path)
    if p.lower().endswith(".wav"):
        return read_wav(path)
    if p.lower().endswith(".csv"):
        return read_signal_csv(path)
    raise InputFormatError(f"{path}: unsupported format (need .csv or .wav)")


def read_if_curve_csv(path) -> np.ndarray:
    """One instantaneous-frequency value (Hz) per line, one per STFT frame."""
    with open(path, "r", encoding="ascii") as fh:
        values = _float_lines(path, fh, 1, "frequency")
    if not values:
        raise InputFormatError(f"{path}: empty IF curve")
    return np.array(values)


def read_poly_spec_json(path) -> TrigPolynomial:
    """Polynomial spec: JSON array [{"m": int, "re": float, "im": float}, ...]
    (complex form, period 2 pi), or an object
    {"period": float, "real_cosine_form": bool, "terms": [...]}.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from None

    if isinstance(doc, list):
        terms_doc, period, real_form = doc, TWO_PI, False
    elif isinstance(doc, dict):
        terms_doc = doc.get("terms")
        period = doc.get("period", TWO_PI)
        real_form = bool(doc.get("real_cosine_form", False))
        if not isinstance(terms_doc, list):
            raise InputFormatError(f"{path}: object form needs a 'terms' array")
        # a JSON number: bool is an int subclass, and strings are not read
        if (isinstance(period, bool) or not isinstance(period, (int, float))
                or not _finite_positive(period)):
            raise InputFormatError(
                f"{path}: period {period!r} is not a finite positive number")
        period = float(period)
    else:
        raise InputFormatError(f"{path}: expected a JSON array or object")

    terms = []
    for i, item in enumerate(terms_doc):
        try:
            m = item["m"]
            amp = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError):
            raise InputFormatError(
                f"{path}: bad term #{i}: expected {{'m', 're', 'im'}}") from None
        # bool is an int subclass; a float frequency must be integral, never truncated
        integral = (isinstance(m, int) and not isinstance(m, bool)) or (
            isinstance(m, float) and m.is_integer())
        if not integral:
            raise InputFormatError(
                f"{path}: term #{i}: frequency m={m!r} is not an integer")
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise InputFormatError(f"{path}: term #{i}: non-finite amplitude")
        terms.append((int(m), amp))
    try:
        return TrigPolynomial(tuple(terms), period=period,
                              real_cosine_form=real_form)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def sha256_file(path) -> str:
    # imported here: hashlib loads OpenSSL, 3.8 MB of RSS in every process
    # that imports the CLI, and only analyze's manifest needs it
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
