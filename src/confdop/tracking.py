"""Seeded spacecraft-tracking simulator.

Generates two-way Doppler and ranging observables for a constant-rate
radial coast, under either the plain Minkowski model (alpha = 0) or the
conformal one (alpha != 0), plus the observed-minus-expected anomaly
residuals.  A run is one TrackingTable of numpy columns, a pure function
of SimConfig, seed included: noise comes from a counter-based Philox
generator keyed by the seed, so reruns are byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .conformal import GroupParameter, _real, _require_c
from .conformal_array import _max_rows
from .constants import SPEED_OF_LIGHT
from .errors import ConfdopError, ConfigInvalid, MalformedCsv, ZeroRange
from .manifest import _write_over
from .wave import doppler_model_conformal

CSV_HEADER = "epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac"
# Rows formatted per write call: bounds the formatting buffers of large tables.
_CSV_CHUNK_ROWS = 4096

# Noise stream identifier recorded in run manifests: one Philox generator
# keyed by the config seed, two standard normals per record in epoch order
# (doppler first, then range).
RNG_ALGORITHM = "numpy.random.Philox(key=seed); Generator.standard_normal (n_obs, 2)"


# Largest n_obs whose (n_obs, 2) float64 noise draws numpy can size.
_MAX_N_OBS = _max_rows(2)


@dataclass(frozen=True)
class SimConfig:
    """Fully determines a simulation run (SI units throughout)."""

    r0: float
    v_radial: float
    t_start: float
    t_end: float
    n_obs: int
    alpha_true: float = 0.0
    sigma_frac: float = 1e-12
    sigma_range: float = 0.0
    seed: int = 0
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):  # an int to Python, but not a number here
                raise ConfigInvalid(f"{f.name}: must be a number, got {value!r}")
            if f.name in ("n_obs", "seed"):
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                if not isinstance(value, int):
                    raise ConfigInvalid(f"{f.name}: must be an integer, got {value!r}")
            elif not isinstance(value, (int, float)):
                raise ConfigInvalid(f"{f.name}: must be a number, got {value!r}")
            else:
                value = _real(f.name, value)  # an integer past the float range is inf
                if not math.isfinite(value):
                    raise ConfigInvalid(f"{f.name}: must be finite, got {value}")
            object.__setattr__(self, f.name, value)
        if not self.r0 > 0.0:
            raise ConfigInvalid(f"r0: must be > 0, got {self.r0}")
        if not self.t_end > self.t_start:
            raise ConfigInvalid(f"t_end: must exceed t_start, got {self.t_end} <= {self.t_start}")
        if not math.isfinite(self.t_end - self.t_start):
            raise ConfigInvalid(
                f"t_end: t_end - t_start must be finite, got {self.t_end - self.t_start}"
            )
        if self.n_obs < 2:
            raise ConfigInvalid(f"n_obs: must be an integer >= 2, got {self.n_obs!r}")
        if self.n_obs > _MAX_N_OBS:
            raise ConfigInvalid(
                f"n_obs: must be <= {_MAX_N_OBS}, so that numpy can size the "
                f"(n_obs, 2) float64 noise draws, got {self.n_obs:.6g}"
            )
        if self.sigma_frac < 0.0:
            raise ConfigInvalid(f"sigma_frac: must be >= 0, got {self.sigma_frac}")
        if self.sigma_range < 0.0:
            raise ConfigInvalid(f"sigma_range: must be >= 0, got {self.sigma_range}")
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid(f"seed: must be a 64-bit unsigned integer, got {self.seed!r}")
        try:
            _require_c(self.c)
        except ConfdopError as exc:
            raise ConfigInvalid(f"c: {exc}") from None
        # the coast is linear, so a range > 0 at both ends is > 0 throughout
        r_end = _coast_range(self, self.t_end)
        if not (r_end > 0.0 and math.isfinite(r_end)):
            raise ConfigInvalid(
                f"v_radial: the range must stay finite and > 0 up to t_end, "
                f"got {r_end} m at t_end = {self.t_end} s"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build from a dict such as a parsed JSON config, refusing unknown
        and missing keys; the values are checked by the constructor."""
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigInvalid(f"{key}: unknown config key")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ConfigInvalid(f"{f.name}: missing required config key")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class TrackingTable:
    """Simulated or recorded observables: one float64 column per quantity,
    one row per epoch, every column the same length.

    Each column is a read-only view (a float64 array passed in is not
    copied), so a table does not change through its own attributes.
    """

    epoch: np.ndarray
    range_true: np.ndarray
    range_rate_true: np.ndarray
    range_meas: np.ndarray
    doppler_frac_meas: np.ndarray
    sigma_frac: np.ndarray

    def __post_init__(self):
        n = None
        for f in fields(self):
            col = np.asarray(getattr(self, f.name), dtype=np.float64).view()
            if col.ndim != 1:
                raise ConfdopError(f"{f.name}: must be a 1-D column, got shape {col.shape}")
            if n is None:
                n = col.size
            elif col.size != n:
                raise ConfdopError(f"{f.name}: has {col.size} rows, epoch has {n}")
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return self.epoch.size


_COLUMNS = tuple(f.name for f in fields(TrackingTable))


@dataclass(frozen=True, eq=False)
class AnomalyResidual:
    """Observed-minus-expected Doppler residuals, one column entry per epoch."""

    epoch: np.ndarray
    residual_velocity: np.ndarray
    residual_rate: np.ndarray


def _coast_range(cfg: SimConfig, epoch):
    """Range of the linear coast at an epoch or an array of epochs."""
    return cfg.r0 + cfg.v_radial * (epoch - cfg.t_start)


def simulate(cfg: SimConfig) -> TrackingTable:
    """Produce a table of n_obs rows at uniform epochs.

    doppler_frac_meas is the conformal model prediction over c plus
    Gaussian noise of width sigma_frac; range_meas is the true range plus
    Gaussian noise of width sigma_range.  Two runs with the same config
    are bit-identical.  A config whose rates or sigmas are so large that a
    column overflows raises ConfigInvalid naming the column.
    """
    p = GroupParameter.from_alpha(cfg.alpha_true, cfg.c)
    epochs = np.linspace(cfg.t_start, cfg.t_end, cfg.n_obs)
    ranges = _coast_range(cfg, epochs)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    draws = rng.standard_normal((cfg.n_obs, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        table = TrackingTable(
            epoch=epochs,
            range_true=ranges,
            range_rate_true=np.full(cfg.n_obs, cfg.v_radial),
            range_meas=ranges + cfg.sigma_range * draws[:, 1],
            doppler_frac_meas=(
                doppler_model_conformal(p, ranges, cfg.v_radial) / cfg.c
                + cfg.sigma_frac * draws[:, 0]
            ),
            sigma_frac=np.full(cfg.n_obs, cfg.sigma_frac),
        )
    for name in _COLUMNS:
        if not np.isfinite(getattr(table, name)).all():
            raise ConfigInvalid(f"{name}: simulated column is not finite for this config")
    return table


def _require_finite_columns(table: TrackingTable, names) -> None:
    """Refuse a non-finite value in any of the named columns, naming the
    column and its first bad row (from 0)."""
    for name in names:
        col = getattr(table, name)
        finite = np.isfinite(col)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ConfdopError(f"{name}: row {i} is not finite ({col[i]})")


def _residual_velocity(table: TrackingTable, c: float) -> np.ndarray:
    """Measured Doppler velocity minus the alpha = 0 (Minkowski) prediction,
    the range rate itself: y = c*doppler_frac_meas - range_rate_true."""
    y = c * table.doppler_frac_meas
    y -= table.range_rate_true
    return y


def anomaly_residuals(table: TrackingTable, c: float = SPEED_OF_LIGHT) -> AnomalyResidual:
    """Residuals of measured Doppler against an alpha = 0 expectation.

    With zero noise the residual rate equals the simulated alpha at every
    epoch.  c and the columns read are checked as fit_alpha checks them.
    """
    _require_c(c)
    _require_finite_columns(table, ("range_true", "range_rate_true", "doppler_frac_meas"))
    zero = np.flatnonzero(table.range_true == 0.0)
    if zero.size:
        raise ZeroRange(f"record at epoch {table.epoch[zero[0]]} has zero range")
    resid_v = _residual_velocity(table, c)
    return AnomalyResidual(
        epoch=table.epoch,
        residual_velocity=resid_v,
        residual_rate=resid_v / table.range_true,
    )


def write_records_csv(table: TrackingTable, path) -> None:
    """Write the table with the fixed header; floats carry 18 significant digits.

    The bytes are those of formatting every value with %.17e.  A column
    whose values are all bit-for-bit equal is formatted once and baked
    into the row template.  The other columns are formatted a chunk of
    rows at a time by _e17_kernel, in numpy, four digits to a word, into
    the word-aligned cells of _e17_cells: a sign byte, then the digits
    from byte 1, NUL-padded to _E17_ROW bytes.
    Each column's slot in the chunk's uint8 row matrix is sized to the
    bytes its cells use there: byte 0 only if some cell is negative, byte
    24 only if some exponent has three digits.  So a chunk holds NULs
    only where a slot's cells differ in width or hold a short nan or inf
    (see _csv_rows).  A chunk without them, as every chunk of a simulated
    reference table, is written from its row matrix; any other is copied
    with its NULs dropped.  The few cells the kernel cannot decide go to
    Python's %.17e: zero, nan and inf, |x| outside [1e-250, 1e250),
    values within 1e-6 of a tie of the 18th digit where the scaling by a
    power of ten is inexact, and 18-digit counts out of range after one
    retry.  A varying column bit-for-bit equal to an earlier one (as
    range_meas is to range_true when sigma_range is 0) shares its cells.
    Both tests compare int64 views, so -0.0 and 0.0, or two NaN payloads,
    count as different values.  The file is written over in place and
    cut at the written length (manifest._write_over).
    """
    cells, varying = [], []  # per column, its constant cell or its index in varying
    for name in _COLUMNS:
        col = getattr(table, name)
        bits = col.view(np.int64)
        if col.size and (bits == bits[0]).all():  # int64 view: -0.0 and 0.0 differ
            cells.append(("%.17e" % col[0]).encode())
            continue
        j = next((j for j, v in enumerate(varying) if (v.view(np.int64) == bits).all()),
                 len(varying))
        if j == len(varying):
            varying.append(col)
        cells.append(j)
    chunks = (_csv_rows(cells, varying, start, min(start + _CSV_CHUNK_ROWS, len(table)))
              for start in range(0, len(table), _CSV_CHUNK_ROWS))
    _write_over(path, itertools.chain([CSV_HEADER.encode() + b"\n"], chunks))


def _csv_rows(cells, varying, start: int, stop: int):
    """The CSV text of rows start:stop as a bytes-like object; cells holds,
    per column, its constant cell's bytes or its index in the list of
    varying columns.

    A varying column's slot spans the bytes its cells use in the chunk.
    Where no slot can hold a NUL (in each varying column, byte 0 set in
    all cells or none, byte 24 in all or none, and byte 23 in all, which
    Python's short nan and inf cells leave NUL), the (rows, width) uint8
    row matrix itself is returned; any other chunk is returned as bytes
    with its NULs dropped.  The cells are freed when this returns."""
    n, nul_free = stop - start, True
    if varying:
        text = _e17_cells(np.concatenate([col[start:stop] for col in varying]))
        text = text.reshape(len(varying), n, _E17_ROW)
        used = []  # per varying column, the first and last-plus-one bytes its cells use
        for t in text:
            signed, long, full = map(np.count_nonzero, (t[:, 0], t[:, 24], t[:, 23]))
            used.append((0 if signed else 1, _E17_WIDTH if long else _E17_WIDTH - 1))
            nul_free &= signed in (0, n) and long in (0, n) and full == n
    row, slots = b"", []  # the chunk's row template; per varying cell, its slot
    for cell in cells:
        if isinstance(cell, bytes):
            row += cell + b","
            continue
        lo, hi = used[cell]
        slots.append((len(row), cell, lo, hi))
        row += bytes(hi - lo) + b","
    template = np.frombuffer(row[:-1] + b"\n", np.uint8)
    rows = np.empty((n, template.size), np.uint8)
    rows[:] = template
    for at, j, lo, hi in slots:
        rows[:, at : at + hi - lo] = text[j, :, lo:hi]
    return rows if nul_free else rows.tobytes().replace(b"\0", b"")


# A %.17e cell: sign, digit, '.', 17 digits, 'e', sign and 2 or 3 digits.
_E17_WIDTH = 25
# A kernel cell: seven 4-byte words, the text in bytes 0 to 24 and the
# exponent field in the last 8 bytes.
_E17_ROW = 28
# The kernel formats |x| in [_E17_MIN, _E17_MAX): no product it forms there
# overflows or leaves the normal range.
_E17_MIN, _E17_MAX = 1e-250, 1e250
# Powers 10**m in the table, and decimal exponents in the exponent table.
_E17_POW_MIN, _E17_POW_MAX = -240, 280
_E17_EXP_MAX = 300
_E18 = 10**18
_E17 = 10**17
# Veltkamp's split factor 2**27 + 1: a float64 as the sum of two 26-bit halves.
_SPLIT = 134217729.0


def _split(x):
    """Veltkamp's split of x into (high, low) halves with x == high + low."""
    big = _SPLIT * x
    high = big - (big - x)
    return high, x - high


@functools.cache
def _e17_tables():
    """The kernel's tables, built from Python ints on the first write.

    10**m for m in [_E17_POW_MIN, _E17_POW_MAX] as a double-double:
    hi is 10**m correctly rounded (an int division for m < 0), with its
    Veltkamp halves, and lo is the rounded remainder 10**m - hi, so lo is
    0 exactly where 10**m is a float64 (0 <= m <= 22).  Also the kernel's
    words, as byte strings viewed as uint32: the 4-digit groups 0000-9999;
    the 200 lead words, NUL or '-' then d.d for a count's first two digits
    i % 100, with the '-' for i >= 100; and the exponent fields e-300 ...
    e+300, each NUL-padded to 8 bytes, as two words.
    """
    hi, lo = [], []
    for m in range(_E17_POW_MIN, _E17_POW_MAX + 1):
        num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    hi_high, hi_low = _split(hi)
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), np.uint32)
    leads = np.frombuffer(b"".join(
        (b"-" if i >= 100 else b"\0") + b"%d.%d" % divmod(i % 100, 10) for i in range(200)
    ), np.uint32)
    exps = np.frombuffer(b"".join(
        (b"e%+03d" % e).ljust(8, b"\0") for e in range(-_E17_EXP_MAX, _E17_EXP_MAX + 1)
    ), np.uint32).reshape(-1, 2)
    return hi, np.array(lo), hi_high, hi_low, quads, leads, exps


def _e17_product(x, m):
    """x * 10**(m + _E17_POW_MIN) for float64 x and table indices m, as
    (p, s, hi, lo): p = x*hi rounded, and s = err + x*lo, where Dekker's
    two-product gives err = x*hi - p exactly.  p + s is within about
    2**-100 of the product, relative; hi and lo are the table's entries."""
    hi, lo, hi_high, hi_low = (t.take(m) for t in _e17_tables()[:4])
    p = x * hi
    x_high, x_low = _split(x)
    s = x_high * hi_high  # in place: err, then s = err + x*lo
    s -= p
    s += x_high * hi_low
    s += x_low * hi_high
    s += x_low * hi_low
    s += x * lo
    return p, s, hi, lo


def _e17_count(a, k):
    """floor(a * 10**(17-k)), that product rounded half to even, and where
    the rounding is undecided, for float64 a in [_E17_MIN, _E17_MAX).

    The product is _e17_product's p + s.  Where lo is 0 it is exact, so an
    exact tie rounds half to even; elsewhere a fraction within 1e-6 of 1/2
    is undecided.
    """
    p, s, _, lo = _e17_product(a, 17 - _E17_POW_MIN - k)
    whole = np.floor(s)
    frac = s - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    up = (frac > 0.5) | ((frac == 0.5) & ((floor & 1) == 1))
    return floor, floor + up, (lo != 0.0) & (np.abs(frac - 0.5) < 1e-6)


def _e17_kernel(x: np.ndarray):
    """The %.17e text of each float64 of x as an (n, _E17_ROW) uint8 matrix
    of word-aligned cells, and the indices of the cells it leaves
    undecided, whose bytes are not set: zero, nan, inf, |x| outside
    [_E17_MIN, _E17_MAX), near-ties of an inexact scaling, and counts that
    are not 18 digits after one retry at the next lower exponent.

    A cell is seven 4-byte words: the lead word (the sign byte or NUL, the
    first digit, '.', the second digit), four words of 4 digits each, and
    the exponent field, NUL-padded to 8 bytes.  Four divisions of the
    18-digit count by 10000 give the 4-digit groups, and the 2-digit
    quotient left, offset by 100 for a negative x, indexes the lead words.
    Every word is copied from a table of bytes, so the cells do not
    depend on the host's byte order.
    """
    *_, quads, leads, exps = _e17_tables()
    a = np.abs(x)
    fine = (a >= _E17_MIN) & (a < _E17_MAX)  # false for 0, nan and inf
    a = np.where(fine, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    floor, count, undecided = _e17_count(a, k)
    low = np.flatnonzero(floor < _E17)
    if low.size:  # log10 rounded up: a is just below a power of ten
        k[low] -= 1
        floor[low], count[low], undecided[low] = _e17_count(a[low], k[low])
    undecided |= ~fine | (floor < _E17) | (count > _E18)
    carry = count == _E18  # rounded up to 10**18: 1.00000000000000000e+(k+1)
    count[carry] = _E17
    k += carry
    count[undecided] = _E17  # keeps the table lookups below in range
    k[undecided] = 0
    words = np.empty((x.size, _E17_ROW // 4), np.uint32)
    for i in range(4, 0, -1):  # the last 16 digits, 4 at a time
        high = count // 10000
        words[:, i] = quads.take(count - high * 10000)
        count = high
    count += 100 * np.signbit(x)
    words[:, 0] = leads.take(count)
    words[:, 5:] = exps.take(k + _E17_EXP_MAX, axis=0)
    return words.view(np.uint8), np.flatnonzero(undecided)


def _e17_cells(x: np.ndarray) -> np.ndarray:
    """_e17_kernel's cells, with the undecided ones formatted by Python's
    %.17e and placed in the kernel's layout: '-' or NUL at byte 0, the
    first digit (or the n of nan, the i of inf) at byte 1, NUL padding
    after the text.  Byte 24 is used only by a 3-digit exponent, and
    bytes 25 to 27 never."""
    cells, undecided = _e17_kernel(x)
    for i, v in zip(undecided.tolist(), x[undecided].tolist()):
        text = ("%.17e" % v).encode()
        at = 0 if text.startswith(b"-") else 1
        cells[i] = 0
        cells[i, at : at + len(text)] = np.frombuffer(text, np.uint8)
    return cells


def read_records_csv(path) -> TrackingTable:
    """Parse a tracking CSV, validating the header and every line.

    A file in the writer's own layout (the header line, then rows of six
    %.17e cells joined by ',' and each ended by '\\n') is parsed in numpy,
    a chunk of rows at a time, into six preallocated columns.  A chunk
    whose rows all have the first row's width and separators, as every
    chunk of a simulated reference table, is read as a row matrix by
    _e17_matrix, which parses each distinct column once; any other chunk
    is located cell by cell by _e17_parse's separator scan.  Both hand
    the cells to _e17_values.  The cells it cannot decide go to float():
    those whose 10**(e-17) is outside the power table (|x| below 1e-223
    or from 1e298 up, subnormals among them), and values within a
    rounding error of a midpoint between two doubles (exact ties among
    them).  Every value is bit-for-bit float() of its cell's text.  Any
    other file is read by _scan_rows, one float() per cell.

    Blank lines are skipped.  A line without six numeric fields, or with a
    non-finite value, raises MalformedCsv naming its line number; text
    that is not UTF-8 raises MalformedCsv naming the file.  Each column
    is contiguous, not a strided view of the rows.
    """
    columns = _read_columns(path)
    if columns is None:
        try:
            columns = np.ascontiguousarray(_scan_rows(path).T)
        except UnicodeDecodeError as exc:
            raise MalformedCsv(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return TrackingTable(*columns)


# Rows parsed per read chunk: bounds the reader's per-cell temporaries.
_CSV_READ_ROWS = 1024
# The bytes of a row of the writer's layout: six cells of 23 to 25 bytes,
# each followed by ',' or '\n'.
_ROW_MIN, _ROW_MAX = 6 * 24, 6 * (_E17_WIDTH + 1)
_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)
# Where each column's values are in a parse of whole rows: in row order.
_ROW_ORDER = tuple(slice(j, None, len(_COLUMNS)) for j in range(len(_COLUMNS)))


def _read_columns(path) -> np.ndarray | None:
    """The (6, n) columns of a file in the writer's layout, or None for
    any other file (whose bytes then go to _scan_rows).

    The file is read a chunk of about _CSV_READ_ROWS rows at a time,
    parsed by _e17_matrix or, where it declines, by _e17_parse; the
    undecided cells are read by float() from their byte offsets.  The
    columns are sized from the file's length at the shortest row and
    returned as a view of their first n entries.
    """
    header = CSV_HEADER.encode() + b"\n"
    with open(path, "rb") as f:
        if f.read(len(header)) != header:
            return None
        size = max(os.fstat(f.fileno()).st_size - len(header), 0)  # 0 if cut since the read
        columns = np.empty((len(_COLUMNS), size // _ROW_MIN))
        n, rest = 0, b""
        while chunk := f.read(_CSV_READ_ROWS * _ROW_MAX):
            chunk = rest + chunk
            end = chunk.rfind(b"\n") + 1  # 0: a row longer than the writer's, or no '\n' at the end
            a = np.frombuffer(chunk, np.uint8, count=end)
            parsed = (_e17_matrix(a) or _e17_parse(a)) if end else None
            if parsed is None:
                return None
            values, undecided, spans, rows, places = parsed
            for i, (start, stop) in zip(undecided.tolist(), spans):
                values[i] = float(chunk[start:stop])
            if not np.isfinite(values[undecided]).all():  # _scan_rows names its line
                return None
            if n + rows > columns.shape[1]:  # the file grew as it was read
                return None
            for column, place in zip(columns, places):
                column[n : n + rows] = values[place]
            n += rows
            rest = chunk[end:]
            del a, chunk  # not held while the next chunk is read and joined to rest
    if rest:  # the last row has no '\n'
        return None
    return columns[:, :n]


# Eight ASCII digits in a little-endian uint64 word are tested and
# converted with the bit tests and multiplies of Lemire, "Number Parsing
# at a Gigabyte per Second" (Software: Practice and Experience, 2021,
# arXiv:2101.11408).
_ZEROS = 0x3030303030303030
# Half-width of the interval, relative to the product, that must round
# to one double for a cell to be decided.  The double-double product is
# within about 2**-102 of M * 10**(e-17), relative, and a half-gap
# between doubles is at least 2**-54 of either neighbour.
_ROUNDING_BAND = 2.0**-90


def _e17_matrix(a: np.ndarray):
    """Parse whole rows of the writer's layout in the uint8 array a, which
    ends with a row's '\\n', as a (rows, width) row matrix.  Returns None
    (and _e17_parse scans the chunk) unless every row has the first row's
    width, with its six separators at the first row's offsets, and every
    sign and cell byte is one of the layout's.

    Each column's cells sit at one offset in every row, so the 24 bytes
    from their first digit are one strided V24 view, copied out as bytes.
    A column whose words are equal in every row is parsed from its first
    cell; a column whose words, sign and width equal an earlier column's
    takes that column's values; the other (distinct) columns are parsed
    whole, their words joined into one (n, 3) uint64 array.  A negative
    column has its '-' in every row.  So every byte is tested: each
    separator and sign byte here, and each cell's text by _e17_values or
    by its equality with a cell that _e17_values parsed.

    Returns _e17_values' values and undecided indices for the distinct
    cells, stacked column by column, the undecided cells' first and
    last-plus-one byte offsets (row * width + the column's offsets), the
    number of rows, and per column the slice of the values that holds it
    (one value for a column parsed from its first cell).
    """
    head = a[:_ROW_MAX]
    seps = np.flatnonzero((head == ord(",")) | (head == ord("\n")))[: len(_COLUMNS)]
    if seps.size < len(_COLUMNS):
        return None
    width = int(seps[-1]) + 1
    if a.size % width:
        return None
    matrix = a.reshape(-1, width)
    rows = matrix.shape[0]
    if (matrix[:, seps] != _SEPARATORS).any():
        return None
    distinct, places, count = [], [], 0  # per parsed column: key, slice, start, stop
    for start, stop in zip([0, *(seps[:-1] + 1).tolist()], seps.tolist()):
        negative = bool(a[start] == ord("-"))
        if negative and (matrix[:, start] != ord("-")).any():
            return None
        long = stop - start - negative == 24
        if not long and stop - start - negative != 23:
            return None
        cells = np.ndarray((rows,), "V24", a, start + negative, (width,)).tobytes()
        if cells == cells[:24] * rows:
            cells = cells[:24]
        key = (cells, negative, long)
        place = next((place for k, place, *_ in distinct if k == key), None)
        if place is None:
            place = slice(count, count + len(cells) // 24)
            count = place.stop
            distinct.append((key, place, start, stop))
        places.append(place)
    cells, negative, long = zip(*(key for key, *_ in distinct))
    sizes = [place.stop - place.start for _, place, *_ in distinct]
    words = np.frombuffer(b"".join(cells), "<u8").reshape(-1, 3)
    parsed = _e17_values(words, np.repeat(negative, sizes), np.repeat(long, sizes))
    if parsed is None:
        return None
    values, undecided = parsed
    spans = []
    for i in undecided.tolist():
        _, place, start, stop = next(d for d in distinct if i < d[1].stop)
        at = (i - place.start) * width
        spans.append((at + start, at + stop))
    return values, undecided, spans, rows, places


def _e17_parse(a: np.ndarray):
    """Parse whole rows of the writer's layout in the uint8 array a, which
    ends with a row's '\\n', locating each cell by a scan for separators.

    Returns _e17_values' values, in row order, and undecided indices, the
    undecided cells' first and last-plus-one byte offsets, the number of
    rows and _ROW_ORDER; or None where a strays from the layout.
    """
    stops = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    if stops.size % len(_COLUMNS) or (a[stops].reshape(-1, len(_COLUMNS)) != _SEPARATORS).any():
        return None
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    negative = a[starts] == ord("-")
    first = starts + negative
    width = stops - first
    long = width == 24  # a 3-digit exponent
    if not (long | (width == 23)).all():
        return None
    words = np.ndarray((a.size - 23,), "V24", a, strides=(1,))[first].view("<u8").reshape(-1, 3)
    parsed = _e17_values(words, negative, long)
    if parsed is None:
        return None
    values, undecided = parsed
    spans = list(zip(starts[undecided].tolist(), stops[undecided].tolist()))
    return values, undecided, spans, values.size // len(_COLUMNS), _ROW_ORDER


def _e17_values(words: np.ndarray, negative: np.ndarray, long: np.ndarray):
    """The values of %.17e cells, given as the 24 bytes from each cell's
    first digit in (n, 3) little-endian uint64 words, with whether each
    cell has a '-' before them and a 3-digit exponent; and the indices of
    the cells it leaves undecided (their values are meaningless).  None
    where a byte of the words strays from the layout.

    In byte order the words are d.dddddd dddddddd dddes + 3 exponent
    digits, or 2 and a separator, which is not tested here.  A cell is an
    18-digit count M and an exponent e.  M * 10**(e-17) is formed as a
    double-double: M as a float64 plus its integer remainder, times the
    writer's table entry hi + lo for 10**(e-17), with Dekker's
    two-product.  A cell is decided where the product plus and minus
    _ROUNDING_BAND of itself round to the same double (Ziv's rounding
    test), which holds everywhere but within a rounding error of a
    midpoint between two doubles, exact ties included.  A cell whose
    e-17 is outside [_E17_POW_MIN, _E17_POW_MAX] is left undecided; the
    table's range keeps every value it decides in the normal range.
    """
    head, tail = words[:, 0], words[:, 2]
    signs = (tail >> 24) & 0xFFFF  # 'e' and the exponent's sign
    if ((head & 0xFF00) != ord(".") << 8).any() or (
        (signs != ord("+") << 8 | ord("e")) & (signs != ord("-") << 8 | ord("e"))
    ).any():
        return None
    w = np.empty((4, head.size), np.uint64)  # words of 8 digits each
    w[0] = (head & 0xFFFFFFFFFFFF0000) | (head & 0xFF) << 8 | 0x30  # 0ddddddd
    w[1] = words[:, 1]
    w[2] = tail << 40 | 0x3030303030  # 00000ddd
    w[3] = np.where(  # 00000xxx, the exponent
        long,
        (tail & 0xFFFFFF0000000000) | 0x3030303030,
        (tail << 8 & 0xFFFF000000000000) | 0x303030303030,
    )
    if (((w + 0x4646464646464646) | (w - _ZEROS)) & 0x8080808080808080).any():
        return None  # a byte that is not a digit
    w -= _ZEROS
    w *= 10 << 8 | 1
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 100 << 16 | 1
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 10000 << 32 | 1
    w >>= 32
    count = (w[0] * 10**11 + w[1] * 1000 + w[2]).view(np.int64)
    e = w[3].view(np.int64)
    e = np.where(signs == ord("-") << 8 | ord("e"), -e, e)
    m = e - 17 - _E17_POW_MIN  # the table index of 10**(e-17)
    clipped = m.clip(0, _E17_POW_MAX - _E17_POW_MIN)
    mf = count.astype(np.float64)
    rest = (count - mf.astype(np.int64)).astype(np.float64)  # M - mf, exact
    p, s, hi, _ = _e17_product(mf, clipped)
    s += rest * hi
    band = p * _ROUNDING_BAND
    below = p + (s - band)
    s += band
    s += p  # the product rounded up by the band
    undecided = (m != clipped) | (below != s)
    np.negative(s, out=s, where=negative)
    return s, np.flatnonzero(undecided)


def _scan_rows(path) -> np.ndarray:
    """Parse the header and then the data lines one at a time with float().

    This is the reference for what a valid file is: it names the first
    bad line in a MalformedCsv, and it reads every file that float()
    reads, whitespace-only lines and CRLF line ends among them.
    """
    names = CSV_HEADER.split(",")
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n")
        if header != CSV_HEADER:
            raise MalformedCsv(f"line 1: header must be {CSV_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise MalformedCsv(f"line {lineno}: expected {len(names)} fields, got {len(parts)}")
            try:
                vals = [float(x) for x in parts]
            except ValueError as exc:
                raise MalformedCsv(f"line {lineno}: {exc}") from exc
            for name, v in zip(names, vals):
                if not math.isfinite(v):
                    raise MalformedCsv(f"line {lineno}: {name} must be finite, got {v}")
            rows.append(vals)
    return np.array(rows, dtype=np.float64).reshape(-1, len(names))
