"""Seeded spacecraft-tracking simulator.

Generates two-way Doppler and ranging observables for a constant-rate
radial coast, under either the plain Minkowski model (alpha = 0) or the
conformal one (alpha != 0), plus the observed-minus-expected anomaly
residuals.  A run is one TrackingTable of numpy columns, a pure function
of SimConfig, seed included: noise comes from a counter-based Philox
generator keyed by the seed, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .conformal import GroupParameter, _require_c
from .constants import SPEED_OF_LIGHT
from .errors import ConfdopError, ConfigInvalid, MalformedCsv, ZeroRange
from .wave import doppler_model_conformal

CSV_HEADER = "epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac"
# Rows formatted per write call: bounds the formatting buffers of large tables.
_CSV_CHUNK_ROWS = 4096

# Noise stream identifier recorded in run manifests: one Philox generator
# keyed by the config seed, two standard normals per record in epoch order
# (doppler first, then range).
RNG_ALGORITHM = "numpy.random.Philox(key=seed); Generator.standard_normal (n_obs, 2)"


def _max_rows(width: int) -> int:
    """Largest row count whose (rows, width) float64 array numpy can size:
    at most np.iinfo(np.intp).max bytes.  Fewer rows may still not fit in
    memory."""
    return np.iinfo(np.intp).max // (width * np.dtype(np.float64).itemsize)


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
                try:
                    value = float(value)
                except OverflowError:  # an integer past the float range
                    value = math.inf if value > 0 else -math.inf
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


@dataclass(frozen=True)
class SignComparison:
    """Side-by-side comparison of an anomaly rate against a Hubble-like rate."""

    anomaly_rate: float
    hubble_rate: float
    magnitude_ratio: float
    opposite_sign: bool
    caveat: str


_TIME_COORDINATE_CAVEAT = (
    "two-way links mix emission-side and reception-side time coordinates; "
    "whether t or t' enters the shift bookkeeping can flip the sign of the "
    "inferred rate, and this comparison does not model that."
)


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
    return c * table.doppler_frac_meas - table.range_rate_true


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


def sign_comparison_report(anomaly_rate: float, hubble_rate: float) -> SignComparison:
    """Compare magnitudes and signs of an anomaly rate and a Hubble-like rate."""
    if anomaly_rate == 0.0:
        ratio = 0.0
    elif hubble_rate == 0.0:
        ratio = math.inf
    else:
        ratio = abs(anomaly_rate) / abs(hubble_rate)
    return SignComparison(
        anomaly_rate=anomaly_rate,
        hubble_rate=hubble_rate,
        magnitude_ratio=ratio,
        opposite_sign=(anomaly_rate * hubble_rate) < 0.0,
        caveat=_TIME_COORDINATE_CAVEAT,
    )


def write_records_csv(table: TrackingTable, path) -> None:
    """Write the table with the fixed header; floats carry 18 significant digits.

    A column whose values are all bit-for-bit equal is formatted once and
    baked into the row template; only the other columns are formatted per
    row.  A varying column that is bit-for-bit equal to an earlier one (as
    range_meas is to range_true when sigma_range is 0) is formatted once
    per chunk, and its strings fill both of its cells.  Both tests compare
    int64 views, so -0.0 and 0.0, or two NaN payloads, count as different
    values.  The bytes are those of formatting every value with %.17e.
    """
    cells = []  # per column: its text if constant, else the index of its column in varying
    varying = []  # the distinct varying columns
    for name in _COLUMNS:
        col = getattr(table, name)
        bits = col.view(np.int64)
        if col.size and (bits == bits[0]).all():  # int64 view: -0.0 and 0.0 differ
            cells.append("%.17e" % col[0])
            continue
        j = next((j for j, v in enumerate(varying) if (v.view(np.int64) == bits).all()),
                 len(varying))
        if j == len(varying):
            varying.append(col)
        cells.append(j)
    slots = [j for j in cells if not isinstance(j, str)]
    repeated = {j for j in slots if slots.count(j) > 1}
    row = ",".join(
        c if isinstance(c, str) else "%s" if c in repeated else "%.17e" for c in cells
    ) + "\n"
    rows = np.column_stack(varying) if varying else np.empty((len(table), 0))
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start : start + _CSV_CHUNK_ROWS]
            f.write((row * len(chunk)) % _chunk_cells(chunk, slots, repeated))


def _chunk_cells(chunk: np.ndarray, slots: list, repeated: set) -> tuple:
    """The row-major cell values of a chunk of the distinct varying columns,
    with each repeated column's values replaced by their %.17e strings,
    formatted once.  `slots` gives each varying cell's column in the chunk."""
    values = chunk.ravel().tolist()
    if not repeated:
        return tuple(values)
    m, width = chunk.shape
    strings = {
        j: ("%.17e\n" * m % tuple(values[j::width])).split("\n")[:m] for j in repeated
    }
    cells = [None] * (m * len(slots))
    for i, j in enumerate(slots):
        cells[i :: len(slots)] = strings[j] if j in repeated else values[j::width]
    return tuple(cells)


def read_records_csv(path) -> TrackingTable:
    """Parse a tracking CSV, validating the header and every line.

    Blank lines are skipped.  A line without six numeric fields, or with a
    non-finite value, raises MalformedCsv naming its line number; text
    that is not UTF-8 raises MalformedCsv naming the file.  Each column
    is contiguous, not a strided view of the rows.
    """
    try:
        return TrackingTable(*np.ascontiguousarray(_read_rows(path).T))
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_rows(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as f:
        header = f.readline().rstrip("\r\n")
        if header != CSV_HEADER:
            raise MalformedCsv(f"line 1: header must be {CSV_HEADER!r}, got {header!r}")
        has_rows = any(line.strip() for line in f)
    rows = None
    if has_rows:  # loadtxt warns on a file without rows
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
        except ValueError:
            pass
    if rows is None or rows.shape[1] != len(_COLUMNS) or not np.isfinite(rows).all():
        return _scan_rows(path)
    return rows


def _scan_rows(path) -> np.ndarray:
    """Parse the data lines one at a time with float().

    This is the reference for what a valid line is: it names the first
    bad line in a MalformedCsv, and it also reads the valid files that
    np.loadtxt refuses (whitespace-only lines, say).
    """
    names = CSV_HEADER.split(",")
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        f.readline()
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
