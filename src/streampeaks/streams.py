"""File formats: point streams, decision graphs, snapshots, events.

Everything is plain CSV or JSON-lines with `.` decimals and `\n` line
ends, so two runs that compute the same values produce byte-identical
files.  Floats are written with repr, the shortest round-tripping form.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from streampeaks.cells import StreamPoint
from streampeaks.errors import StreamClusteringError, StreamFormatError
from streampeaks.evolution import EvolutionEvent
from streampeaks.tau import DecisionGraphPoint

PathLike = Union[str, Path]

_SNAPSHOT_NAME = re.compile(r"snapshot_(\d+)_t(.+)\.csv$")


def _fmt(x: float) -> str:
    """Shortest exact decimal form; infinities spelled `inf`."""
    return repr(float(x)) if math.isfinite(x) else ("inf" if x > 0 else "-inf")


@contextmanager
def open_text(path: PathLike,
              error: type[StreamClusteringError] = StreamFormatError,
              newline: Optional[str] = None) -> Iterator[TextIO]:
    """The file opened for reading as UTF-8 text.  A byte that does not
    decode raises ``error`` naming the file and the line that holds it.
    The file streams in chunks; only that error reads it whole, to find
    the line."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path.name}: line {lineno}: not UTF-8 text") from None
        raise


def stream_header(dim: int, labeled: bool) -> list[str]:
    cols = ["t"] + [f"x{i}" for i in range(1, dim + 1)]
    if labeled:
        cols.append("label")
    return cols


@contextmanager
def open_stream(path: PathLike
                ) -> Iterator[tuple[bool, Iterator[StreamPoint]]]:
    """A point file opened for lazy parsing: whether it carries labels,
    and an iterator that reads, validates and returns one row per step.

    Errors carry the 1-based line number of the offending row.  Consume
    the points inside the ``with`` block: leaving it closes the file,
    and a byte met there that is not UTF-8 is reported with its line.
    """
    with open_text(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise StreamFormatError("line 1: empty file, expected a header")
        labeled = bool(header) and header[-1] == "label"
        dim = len(header) - 1 - (1 if labeled else 0)
        if dim < 1 or header != stream_header(dim, labeled):
            raise StreamFormatError(
                f"line 1: bad header {','.join(header)!r}, "
                "expected t,x1,...,xd[,label]")
        yield labeled, _parse_rows(rows, dim, labeled)


def _parse_rows(rows: Iterator[list[str]], dim: int,
                labeled: bool) -> Iterator[StreamPoint]:
    isfinite = math.isfinite
    width = dim + (2 if labeled else 1)
    last_t = -math.inf
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise StreamFormatError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            t = float(row[0])
            coords = tuple(map(float, row[1:dim + 1]))
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: {exc}") from None
        if not (isfinite(t) and all(map(isfinite, coords))):
            raise StreamFormatError(f"line {lineno}: non-finite value")
        if t < last_t:
            raise StreamFormatError(
                f"line {lineno}: time {t} goes backwards (after {last_t})")
        last_t = t
        yield StreamPoint(coords, t, row[dim + 1] if labeled else None)


def read_stream(path: PathLike) -> tuple[list[StreamPoint], bool]:
    """Parse a whole point file; returns the points and whether labels
    exist.  Errors are those of ``open_stream``."""
    with open_stream(path) as (labeled, points):
        return list(points), labeled


def write_stream(path: PathLike, points: Iterable[StreamPoint],
                 labeled: bool) -> None:
    """Write points as they arrive; the first one sets the dimension.
    It is drawn before the file is opened."""
    points = iter(points)
    first = next(points, None)
    dim = len(first.coords) if first is not None else 1
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(stream_header(dim, labeled))
        for p in () if first is None else chain((first,), points):
            row = [_fmt(p.t)] + [_fmt(c) for c in p.coords]
            if labeled:
                row.append(p.label if p.label is not None else "")
            w.writerow(row)


def write_decision_graph(path: PathLike,
                         graph: Iterable[DecisionGraphPoint]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cell_id", "rho", "delta"])
        for g in graph:
            w.writerow([g.cell_id, _fmt(g.rho), _fmt(g.delta)])


SnapshotRow = tuple[int, int, float, float, tuple[float, ...]]


def snapshot_filename(index: int, time: float) -> str:
    return f"snapshot_{index:06d}_t{time:012.6f}.csv"


def write_snapshot(out_dir: PathLike, index: int, time: float,
                   rows: Sequence[SnapshotRow]) -> Path:
    """One clustering as CSV; outlier cells carry cluster_id -1."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dim = len(rows[0][4]) if rows else 1
    path = out_dir / snapshot_filename(index, time)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cell_id", "cluster_id", "rho", "delta"]
                   + [f"x{i}" for i in range(1, dim + 1)])
        for cell_id, cluster_id, rho, delta, coords in rows:
            w.writerow([cell_id, cluster_id, _fmt(rho), _fmt(delta)]
                       + [_fmt(c) for c in coords])
    return path


def list_snapshots(out_dir: PathLike) -> list[Path]:
    return sorted(Path(out_dir).glob("snapshot_*.csv"))


def read_snapshot(path: PathLike) -> tuple[float, list[SnapshotRow]]:
    """Inverse of write_snapshot; time comes from the file name.  Row
    errors name the file and the row's 1-based line."""
    path = Path(path)
    m = _SNAPSHOT_NAME.search(path.name)
    if m is None:
        raise StreamFormatError(f"not a snapshot file name: {path.name}")
    time = float(m.group(2))
    rows: list[SnapshotRow] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["cell_id", "cluster_id", "rho", "delta"]:
            raise StreamFormatError(f"{path.name}: bad snapshot header")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(
                        f"expected {len(header)} fields, got {len(row)}")
                rows.append((int(row[0]), int(row[1]), float(row[2]),
                             float(row[3]), tuple(float(v) for v in row[4:])))
            except ValueError as exc:
                raise StreamFormatError(
                    f"{path.name}: line {lineno}: {exc}") from None
    return time, rows


def write_events(path: PathLike, events: Iterable[EvolutionEvent]) -> None:
    """JSON-lines event log, one event per line, fixed field order."""
    with Path(path).open("w") as fh:
        for e in events:
            record = {
                "time": e.time,
                "kind": e.kind,
                "old_ids": list(e.old_ids),
                "new_ids": list(e.new_ids),
                "adjust_kind": e.adjust_kind,
                "cause": e.cause,
            }
            fh.write(json.dumps(record) + "\n")


def write_counters(path: PathLike, counters: dict[str, int]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["counter", "value"])
        for name in sorted(counters):
            w.writerow([name, counters[name]])


def read_counters(path: PathLike) -> dict[str, int]:
    """Inverse of write_counters.  Errors name the file and the 1-based
    line."""
    path = Path(path)
    counters: dict[str, int] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["counter", "value"]:
            raise StreamFormatError(
                f"{path.name}: line 1: bad counters header, "
                "expected counter,value")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                counters[row[0]] = int(row[1])
            except ValueError as exc:
                raise StreamFormatError(
                    f"{path.name}: line {lineno}: {exc}") from None
    return counters


def write_eval(path: PathLike, rows: Iterable[tuple[float, str, float]]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "metric", "value"])
        for time, metric, value in rows:
            w.writerow([_fmt(time), metric, _fmt(value)])

