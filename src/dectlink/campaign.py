"""Measurement-campaign ingestion and per-location link statistics.

A capture is one location's request/response log: one row per request with
the control-channel (PCC) and data-channel (PDC) RSSI, SNR, and CRC flags,
plus a sidecar of location metadata. Summaries average received power in
the linear domain (never raw dB) and judge reliability from CRC success
rates against a strict threshold.

Captures are read by the package's one table reader (`dectlink.tabular`):
a line whose first non-blank character is '#' is a comment, wherever it
sits and whatever it holds, commas included. A `LocationCapture` keeps its
rows column by column (`CaptureColumns`) and checks and summarises whole
columns; `zip(*capture.columns)` iterates the rows as tuples. RSSI values
above 10 dBm are taken for logging glitches and raise one warning per
capture, giving its location id, their count and the first seq.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .budget import LinkBudget, ReliabilityThresholds, empirical_pl, is_reliable
from .propagation import _require_finite, _require_positive
from .tabular import field_parsers, float_column, int_column, parse_key_values, read_table

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
    from pathlib import Path
    from typing import Any

_ENVIRONMENT_RE = re.compile(r"^(los|nlos)-(indoor|outdoor)$")

# Anything hotter than this is assumed to be a logging glitch, not a signal.
_SUSPICIOUS_RSSI_DBM = 10.0


def mean_power_db(values_db: Sequence[float]) -> float:
    """Mean of dB power values taken in the linear domain, returned in dB.

    10 log10(mean(10^(x/10))). The naive dB-domain mean understates this
    whenever the samples differ (Jensen's inequality).
    """
    if len(values_db) == 0:
        raise ValueError("mean_power_db needs at least one value")
    if not all(map(math.isfinite, values_db)):
        bad = next(v for v in values_db if not math.isfinite(v))
        raise ValueError(f"mean_power_db got a non-finite value: {bad!r}")
    try:
        mean = math.fsum([10.0 ** (v / 10.0) for v in values_db]) / len(values_db)
    except OverflowError:
        raise ValueError(
            f"mean_power_db: {max(values_db)!r} dB overflows the linear domain"
        ) from None
    if mean == 0.0:
        raise ValueError(
            f"mean_power_db: every value underflows to 0 in the linear domain, "
            f"the largest being {max(values_db)!r} dB"
        )
    return 10.0 * math.log10(mean)


def sample_std_db(values_db: Sequence[float]) -> float:
    """Sample standard deviation (ddof=1) in the dB domain; 0.0 below two samples."""
    n = len(values_db)
    if n < 2:
        return 0.0
    try:
        mean = math.fsum(values_db) / n
        std = math.sqrt(math.fsum([(v - mean) ** 2 for v in values_db]) / (n - 1))
    except OverflowError:
        std = math.inf
    if not math.isfinite(std):
        raise ValueError(
            f"sample_std_db: {max(values_db, key=abs)!r} dB overflows the squared deviations"
        )
    return std


class CaptureColumns(NamedTuple):
    """A capture's rows column by column; entry i of every column belongs to row i."""

    seq: tuple[int, ...]
    pcc_rssi_dbm: tuple[float | None, ...]
    pdc_rssi_dbm: tuple[float | None, ...]
    snr_db: tuple[float | None, ...]
    pcc_crc_ok: tuple[bool, ...]
    pdc_crc_ok: tuple[bool, ...]


CAPTURE_HEADER = CaptureColumns._fields


@dataclass(frozen=True)
class LocationCapture:
    """A full capture at one location: rows plus sidecar metadata.

    request_count is the number of requests sent, which may exceed the
    number of logged rows when lost requests produce no row at all; success
    rates always use request_count as the denominator.

    The rows are held column by column and are checked against the capture
    file's row rules; errors name the row index (`row N:`). Iterate the rows
    as tuples with `zip(*capture.columns)`.
    """

    location_id: str
    distance_m: float
    environment: str
    p_tx_dbm: float
    request_count: int
    columns: CaptureColumns

    def __post_init__(self) -> None:
        columns = self.columns
        if len(set(map(len, columns))) > 1:
            raise ValueError("capture columns must all have the same length")
        _check_rows(columns, range(len(columns.seq)), "row {}")
        if not self.location_id:
            raise ValueError("location_id must be non-empty")
        _require_positive("distance_m", self.distance_m)
        if not _ENVIRONMENT_RE.match(self.environment):
            raise ValueError(
                "environment must look like 'los-indoor' or 'nlos-outdoor', "
                f"got {self.environment!r}"
            )
        _require_finite("p_tx_dbm", self.p_tx_dbm)
        if self.request_count <= 0:
            raise ValueError(f"request_count must be positive, got {self.request_count!r}")
        crc_ok = max(sum(columns.pcc_crc_ok), sum(columns.pdc_crc_ok))
        if crc_ok > self.request_count:
            raise ValueError(
                f"request_count {self.request_count} is below the number of "
                f"CRC-ok rows ({crc_ok})"
            )
        rssi_columns = (columns.pcc_rssi_dbm, columns.pdc_rssi_dbm)
        # filter(None, ...) drops None, and 0.0, which is not hot either.
        hottest = max(max(filter(None, col), default=-math.inf) for col in rssi_columns)
        if hottest > _SUSPICIOUS_RSSI_DBM:
            hot = [[v for v in filter(None, col) if v > _SUSPICIOUS_RSSI_DBM]
                   for col in rssi_columns]
            # Any value equal to a column's first hot value is hot too, so index() finds its row.
            first = min(col.index(values[0]) for col, values in zip(rssi_columns, hot) if values)
            # Level 3 skips the generated __init__ and names the caller of LocationCapture(...).
            warnings.warn(
                f"{self.location_id}: {sum(map(len, hot))} RSSI value(s) above "
                f"{_SUSPICIOUS_RSSI_DBM:.0f} dBm, the first at seq={columns.seq[first]}; "
                "check the capture",
                stacklevel=3,
            )

    @property
    def propagation(self) -> str:
        return self.environment.split("-")[0]

    @property
    def setting(self) -> str:
        return self.environment.split("-")[1]


_META_PARSERS = field_parsers(LocationCapture, skip=("columns",))
META_KEYS = tuple(_META_PARSERS)


def success_rate_pcc(capture: LocationCapture) -> float:
    """Control-channel CRC success rate in percent, over all requests sent."""
    return 100.0 * sum(capture.columns.pcc_crc_ok) / capture.request_count


def success_rate_pdc(capture: LocationCapture) -> float:
    """Data-channel CRC success rate in percent, over all requests sent."""
    return 100.0 * sum(capture.columns.pdc_crc_ok) / capture.request_count


@dataclass(frozen=True)
class CampaignRecord:
    """Per-location summary derived from one capture.

    Power statistics use the linear-domain mean; std/min/max are over the
    control-channel RSSI samples in dB. Fields are None when no sample of
    the relevant kind was received.
    """

    location_id: str
    distance_m: float
    setting: str
    propagation: str
    p_tx_dbm: float
    request_count: int
    sr_pcc_pct: float
    sr_pdc_pct: float
    mean_pcc_rssi_dbm: float | None
    mean_pdc_rssi_dbm: float | None
    std_pcc_rssi_db: float
    min_pcc_rssi_dbm: float | None
    max_pcc_rssi_dbm: float | None
    mean_snr_db: float | None
    empirical_pl_pcc_db: float | None
    empirical_pl_pdc_db: float | None
    reliable: bool


def summarize(
    capture: LocationCapture,
    budget: LinkBudget,
    thresholds: ReliabilityThresholds = ReliabilityThresholds(),
) -> CampaignRecord:
    """Collapse a capture into one CampaignRecord.

    Empirical path loss uses the capture's own TX power (not the budget's)
    so captures at different power settings summarize correctly against one
    shared correction budget.
    """
    columns = capture.columns
    pcc_rssi = [v for v in columns.pcc_rssi_dbm if v is not None]
    pdc_rssi = [v for v in columns.pdc_rssi_dbm if v is not None]
    snr = [v for v in columns.snr_db if v is not None]

    mean_pcc = mean_power_db(pcc_rssi) if pcc_rssi else None
    mean_pdc = mean_power_db(pdc_rssi) if pdc_rssi else None
    mean_snr = mean_power_db(snr) if snr else None

    sr_pcc = success_rate_pcc(capture)
    sr_pdc = success_rate_pdc(capture)

    return CampaignRecord(
        location_id=capture.location_id,
        distance_m=capture.distance_m,
        setting=capture.setting,
        propagation=capture.propagation,
        p_tx_dbm=capture.p_tx_dbm,
        request_count=capture.request_count,
        sr_pcc_pct=sr_pcc,
        sr_pdc_pct=sr_pdc,
        mean_pcc_rssi_dbm=mean_pcc,
        mean_pdc_rssi_dbm=mean_pdc,
        std_pcc_rssi_db=sample_std_db(pcc_rssi),
        min_pcc_rssi_dbm=min(pcc_rssi) if pcc_rssi else None,
        max_pcc_rssi_dbm=max(pcc_rssi) if pcc_rssi else None,
        mean_snr_db=mean_snr,
        empirical_pl_pcc_db=(
            empirical_pl(capture.p_tx_dbm, mean_pcc, budget) if mean_pcc is not None else None
        ),
        empirical_pl_pdc_db=(
            empirical_pl(capture.p_tx_dbm, mean_pdc, budget) if mean_pdc is not None else None
        ),
        reliable=is_reliable(sr_pcc, thresholds) and is_reliable(sr_pdc, thresholds),
    )


def max_reliable_distance(
    records: Iterable[CampaignRecord],
    thresholds: ReliabilityThresholds = ReliabilityThresholds(),
) -> CampaignRecord:
    """The farthest record whose PCC and PDC success rates both clear the floor.

    Raises ValueError when no record qualifies.
    """
    best: CampaignRecord | None = None
    for record in records:
        if not (
            is_reliable(record.sr_pcc_pct, thresholds)
            and is_reliable(record.sr_pdc_pct, thresholds)
        ):
            continue
        if best is None or record.distance_m > best.distance_m:
            best = record
    if best is None:
        raise ValueError("no record meets the reliability threshold on both channels")
    return best


_FLAGS = {"0": False, "1": True}


def _flag_column(cells: list[str], numbers: Sequence[int], name: str) -> tuple[bool, ...]:
    try:
        return tuple(map(_FLAGS.__getitem__, cells))
    except KeyError:
        line_no, cell = next((n, c) for n, c in zip(numbers, cells) if c not in _FLAGS)
        raise ValueError(f"line {line_no}: column {name!r} must be 0 or 1, got {cell!r}") from None


def _check_rows(columns: CaptureColumns, numbers: Sequence[int], where: str) -> None:
    """Check seq >= 0 and unique, and CRC ok only with RSSI; errors cite where.format(line)."""
    seq = columns.seq
    if seq and min(seq) < 0:
        n, bad = next((n, s) for n, s in zip(numbers, seq) if s < 0)
        raise ValueError(f"{where.format(n)}: column 'seq' must be >= 0, got {bad}")
    if len(set(seq)) != len(seq):
        seen: set[int] = set()
        for n, s in zip(numbers, seq):
            if s in seen:
                raise ValueError(f"{where.format(n)}: duplicate seq {s}")
            seen.add(s)
    pairs = ((columns.pcc_crc_ok, columns.pcc_rssi_dbm), (columns.pdc_crc_ok, columns.pdc_rssi_dbm))
    for channel, (ok, rssi) in zip(("pcc", "pdc"), pairs):
        if None in compress(rssi, ok):
            at = where.format(next(n for n, o, r in zip(numbers, ok, rssi) if o and r is None))
            raise ValueError(f"{at}: {channel}_crc_ok=1 but {channel}_rssi_dbm is empty")


def read_capture_meta(path: str | Path) -> dict[str, Any]:
    """Parse a key=value sidecar into typed fields; ValueError on a bad or missing key."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8-sig") as stream:
        values = parse_key_values(stream.read(), _META_PARSERS, name)
    missing = [k for k in META_KEYS if k not in values]
    if missing:
        raise ValueError(f"{name}: missing keys: {', '.join(missing)}")
    return values


def load_capture(csv_path: str | Path) -> LocationCapture:
    """Load a capture CSV plus its sidecar (foo.csv pairs with foo.meta).

    Expected header: seq,pcc_rssi_dbm,pdc_rssi_dbm,snr_db,pcc_crc_ok,pdc_crc_ok.
    Lines whose first non-blank character is '#', and empty lines, are
    skipped. Empty RSSI cells mean nothing was received on that channel,
    which is only consistent with a 0 CRC flag.

    The sidecar is parsed first. Each check on the CSV then runs over a
    whole column, in the order: cell count, the seq integers, the RSSI and
    SNR numbers, the two CRC flags, then the row rules (seq >= 0, seq
    unique, CRC against RSSI). The sidecar's values, request_count against
    the CRC-ok rows among them, are checked last. Errors in the CSV name
    the file line (`line N:`). A file with one faulty row gets the message
    a row-by-row scan would give; with faults in several rows, the message
    names the first row failing the earliest check, which need not be the
    first faulty row.
    """
    meta = read_capture_meta(os.path.splitext(csv_path)[0] + ".meta")
    numbers, cells = read_table(csv_path, CAPTURE_HEADER)
    columns = CaptureColumns(
        tuple(int_column(cells[0], numbers, "seq")),
        *(tuple(float_column(cells[i], numbers, CAPTURE_HEADER[i], optional=True))
          for i in (1, 2, 3)),
        *(_flag_column(cells[i], numbers, CAPTURE_HEADER[i]) for i in (4, 5)),
    )
    # Free the cell text before the checks allocate: held, it lifts a load's peak RSS.
    del cells
    try:
        return LocationCapture(**meta, columns=columns)
    except ValueError:
        # The constructor checks the row rules by row index; name the file line instead.
        _check_rows(columns, numbers, "line {}")
        raise
