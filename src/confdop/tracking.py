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
    rows at a time by _e17_kernel, in numpy, into the cells of
    _e17_cells: a sign byte, then the digits from byte 1, NUL-padded to
    _E17_WIDTH bytes.  Each column's slot in the chunk's uint8 row matrix
    is sized to the bytes its cells use there: byte 0 only if some cell
    is negative, the last byte only if some exponent has three digits.
    So a chunk holds NULs only where a slot's cells differ in width, and
    those are dropped as the chunk is written; in a simulated reference
    table there are none.  The few cells the kernel cannot decide go to
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


def _csv_rows(cells, varying, start: int, stop: int) -> bytes:
    """The CSV text of rows start:stop; cells holds, per column, its
    constant cell's bytes or its index in the list of varying columns.
    The chunk's matrix and cells are freed when this returns."""
    if varying:
        text = _e17_cells(np.concatenate([col[start:stop] for col in varying]))
        text = text.reshape(len(varying), stop - start, _E17_WIDTH)
        used = [  # per varying column, the first and last-plus-one bytes its cells use
            (0 if t[:, 0].any() else 1, _E17_WIDTH if t[:, -1].any() else _E17_WIDTH - 1)
            for t in text
        ]
    row, slots = b"", []  # the chunk's row template; per varying cell, its slot
    for cell in cells:
        if isinstance(cell, bytes):
            row += cell + b","
            continue
        lo, hi = used[cell]
        slots.append((len(row), cell, lo, hi))
        row += bytes(hi - lo) + b","
    template = np.frombuffer(row[:-1] + b"\n", np.uint8)
    rows = np.empty((stop - start, template.size), np.uint8)
    rows[:] = template
    for at, j, lo, hi in slots:
        rows[:, at : at + hi - lo] = text[j, :, lo:hi]
    return rows.tobytes().replace(b"\0", b"")


# A %.17e cell: sign, digit, '.', 17 digits, 'e', sign and 2 or 3 digits.
_E17_WIDTH = 25
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
    0 exactly where 10**m is a float64 (0 <= m <= 22).  Also the ASCII
    digit pairs 00-99, and the exponent fields e-300 ... e+300, each
    NUL-padded to 8 bytes.
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
    # byte strings viewed as uint16 and uint64, so one take gathers a field
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    exps = np.frombuffer(b"".join(
        (b"e%+03d" % e).ljust(8, b"\0") for e in range(-_E17_EXP_MAX, _E17_EXP_MAX + 1)
    ), np.uint64)
    return hi, np.array(lo), hi_high, hi_low, pairs, exps


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
    up = (frac > 0.5) | ((frac == 0.5) & (floor % 2 == 1))
    return floor, floor + up, (lo != 0.0) & (np.abs(frac - 0.5) < 1e-6)


def _e17_kernel(x: np.ndarray):
    """The %.17e text of each float64 of x as an (n, _E17_WIDTH) uint8
    matrix of NUL-padded cells, and the indices of the cells it leaves
    undecided, whose bytes are not set: zero, nan, inf, |x| outside
    [_E17_MIN, _E17_MAX), near-ties of an inexact scaling, and counts that
    are not 18 digits after one retry at the next lower exponent."""
    *_, pairs, exps = _e17_tables()
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
    text = np.empty((x.size, 9), np.uint16)  # the count's 9 digit pairs, as ASCII
    for i in range(8, -1, -1):
        count, pair = np.divmod(count, 100)
        text[:, i] = pairs.take(pair)
    text = text.view(np.uint8)
    cells = np.empty((x.size, _E17_WIDTH), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    cells[:, 1] = text[:, 0]
    cells[:, 2] = ord(".")
    cells[:, 3:20] = text[:, 1:]
    cells[:, 20:] = exps.take(k + _E17_EXP_MAX).view(np.uint8).reshape(-1, 8)[:, :5]
    return cells, np.flatnonzero(undecided)


def _e17_cells(x: np.ndarray) -> np.ndarray:
    """_e17_kernel's cells, with the undecided ones formatted by Python's
    %.17e and placed in the kernel's layout: '-' or NUL at byte 0, the
    first digit (or the n of nan, the i of inf) at byte 1, NUL padding
    after the text.  Byte 24 is used only by a 3-digit exponent."""
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
    %.17e cells joined by ',' and each ended by '\\n') is parsed in numpy
    by _e17_parse, a chunk of rows at a time, into six preallocated
    columns.  The cells it cannot decide go to float(): those whose
    10**(e-17) is outside the power table (|x| below 1e-223 or from
    1e298 up, subnormals among them), and values within a rounding
    error of a midpoint between two doubles (exact ties among them).
    Every value is bit-for-bit float() of its cell's text.  Any other
    file is read by _scan_rows, one float() per cell.

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


def _read_columns(path) -> np.ndarray | None:
    """The (6, n) columns of a file in the writer's layout, or None for
    any other file (whose bytes then go to _scan_rows).

    The file is read a chunk of about _CSV_READ_ROWS rows at a time; the
    columns are sized from the file's length at the shortest row and
    returned as a view of their first n entries.
    """
    header = CSV_HEADER.encode() + b"\n"
    with open(path, "rb") as f:
        if f.read(len(header)) != header:
            return None
        size = os.fstat(f.fileno()).st_size - len(header)
        columns = np.empty((len(_COLUMNS), size // _ROW_MIN))
        n, rest = 0, b""
        while chunk := f.read(_CSV_READ_ROWS * _ROW_MAX):
            chunk = rest + chunk
            end = chunk.rfind(b"\n") + 1  # 0: a row longer than the writer's, or no '\n' at the end
            parsed = _e17_parse(np.frombuffer(chunk, np.uint8, count=end)) if end else None
            if parsed is None:
                return None
            values, undecided, starts, stops = parsed
            for i in undecided.tolist():
                values[i] = float(chunk[starts[i] : stops[i]])
            if not np.isfinite(values[undecided]).all():  # _scan_rows names its line
                return None
            rows = values.size // len(_COLUMNS)
            if n + rows > columns.shape[1]:  # the file grew as it was read
                return None
            columns[:, n : n + rows] = values.reshape(rows, len(_COLUMNS)).T
            n += rows
            rest = chunk[end:]
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


def _e17_parse(a: np.ndarray):
    """Parse whole rows of the writer's layout in the uint8 array a, which
    ends with a row's '\\n'.

    Returns the cells' values in row order, the indices of the cells it
    leaves undecided (their values are meaningless), and every cell's first
    and last-plus-one byte offsets; or None where a strays from the
    layout.  A cell [-]d.ddddddddddddddddde(+|-)dd[d] is an 18-digit
    count M and an exponent e.  M * 10**(e-17) is formed as a
    double-double: M as a float64 plus its integer remainder, times the
    writer's table entry hi + lo for 10**(e-17), with Dekker's
    two-product.  A cell is decided where the product plus and minus
    _ROUNDING_BAND of itself round to the same double (Ziv's rounding
    test), which holds everywhere but within a rounding error of a
    midpoint between two doubles, exact ties included.  A cell whose
    e-17 is outside [_E17_POW_MIN, _E17_POW_MAX] is left undecided; the
    table's range keeps every value it decides in the normal range.
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
    # The 24 bytes from each cell's first digit as three words; in byte
    # order, d.dddddd dddddddd dddes + 3 exponent digits or 2 and a separator.
    words = np.ndarray((a.size - 23,), "V24", a, strides=(1,))[first].view("<u8").reshape(-1, 3)
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
    return s, np.flatnonzero(undecided), starts, stops


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
