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
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from streampeaks.cells import StreamPoint
from streampeaks.errors import StreamFormatError
from streampeaks.evolution import EvolutionEvent
from streampeaks.tau import DecisionGraphPoint

PathLike = Union[str, Path]

_SNAPSHOT_NAME = re.compile(r"snapshot_(\d+)_t(.+)\.csv$")


def _fmt(x: float) -> str:
    """Shortest exact decimal form; infinities spelled `inf`."""
    return repr(float(x)) if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def stream_header(dim: int, labeled: bool) -> list[str]:
    cols = ["t"] + [f"x{i}" for i in range(1, dim + 1)]
    if labeled:
        cols.append("label")
    return cols


def read_stream(path: PathLike) -> tuple[list[StreamPoint], bool]:
    """Parse a point file; returns the points and whether labels exist.

    Errors carry the 1-based line number of the offending row.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise StreamFormatError("line 1: empty file, expected a header")
    header = rows[0]
    labeled = bool(header) and header[-1] == "label"
    dim = len(header) - 1 - (1 if labeled else 0)
    if dim < 1 or header != stream_header(dim, labeled):
        raise StreamFormatError(
            f"line 1: bad header {','.join(header)!r}, "
            "expected t,x1,...,xd[,label]")
    points: list[StreamPoint] = []
    last_t = -math.inf
    width = len(header)
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise StreamFormatError(
                f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            t = float(row[0])
            coords = tuple(float(v) for v in row[1:dim + 1])
        except ValueError as exc:
            raise StreamFormatError(f"line {lineno}: {exc}") from None
        if not math.isfinite(t) or not all(math.isfinite(c) for c in coords):
            raise StreamFormatError(f"line {lineno}: non-finite value")
        if t < last_t:
            raise StreamFormatError(
                f"line {lineno}: time {t} goes backwards (after {last_t})")
        last_t = t
        points.append(StreamPoint(coords, t, row[dim + 1] if labeled else None))
    return points, labeled


def write_stream(path: PathLike, points: Iterable[StreamPoint],
                 labeled: bool) -> None:
    points = list(points)
    dim = len(points[0].coords) if points else 1
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(stream_header(dim, labeled))
        for p in points:
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
    with path.open(newline="") as fh:
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


_EVENT_FIELDS = ("time", "kind", "old_ids", "new_ids", "adjust_kind", "cause")


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


def read_events(path: PathLike) -> list[EvolutionEvent]:
    events: list[EvolutionEvent] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if tuple(rec) != _EVENT_FIELDS:
                raise StreamFormatError(
                    f"line {lineno}: event fields {tuple(rec)} != {_EVENT_FIELDS}")
            events.append(EvolutionEvent(
                time=rec["time"], kind=rec["kind"],
                old_ids=tuple(rec["old_ids"]), new_ids=tuple(rec["new_ids"]),
                adjust_kind=rec["adjust_kind"], cause=rec["cause"]))
    return events


def write_counters(path: PathLike, counters: dict[str, int]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["counter", "value"])
        for name in sorted(counters):
            w.writerow([name, counters[name]])


def read_counters(path: PathLike) -> dict[str, int]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return {name: int(value) for name, value in reader}


def write_eval(path: PathLike, rows: Iterable[tuple[float, str, float]]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "metric", "value"])
        for time, metric, value in rows:
            w.writerow([_fmt(time), metric, _fmt(value)])


def read_eval(path: PathLike) -> list[tuple[float, str, float]]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return [(float(t), m, float(v)) for t, m, v in reader]
