"""File-format round trips and parse errors for stream I/O."""

import math
import re

import pytest

from streampeaks.cells import StreamPoint
from streampeaks.errors import StreamFormatError
from streampeaks.evolution import EvolutionEvent
from streampeaks.streams import (
    list_snapshots,
    open_stream,
    open_text,
    read_counters,
    read_snapshot,
    read_stream,
    snapshot_filename,
    stream_header,
    write_counters,
    write_eval,
    write_events,
    write_snapshot,
    write_stream,
)

from _oracles import read_eval, read_events


class TestStreamRoundTrip:
    def test_labeled_points_survive(self, tmp_path):
        pts = [StreamPoint((0.5, -1.25), 0.0, "a"),
               StreamPoint((2.0, 3.0), 0.125, "b")]
        path = tmp_path / "s.csv"
        write_stream(path, pts, labeled=True)
        back, labeled = read_stream(path)
        assert labeled
        assert back == pts

    def test_unlabeled_points_survive(self, tmp_path):
        pts = [StreamPoint((1.0,), 0.0), StreamPoint((2.5,), 1.0)]
        path = tmp_path / "s.csv"
        write_stream(path, pts, labeled=False)
        back, labeled = read_stream(path)
        assert not labeled
        assert back == pts

    def test_written_file_is_deterministic(self, tmp_path):
        pts = [StreamPoint((0.1, 0.2, 0.3), 0.0, "x")]
        write_stream(tmp_path / "a.csv", pts, labeled=True)
        write_stream(tmp_path / "b.csv", pts, labeled=True)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr emits the shortest form that parses back to the same double
        pts = [StreamPoint((1 / 3, 0.1 + 0.2), 1e-9)]
        path = tmp_path / "s.csv"
        write_stream(path, pts, labeled=False)
        (p,), _ = read_stream(path)
        assert p.coords == pts[0].coords
        assert p.t == pts[0].t

    def test_header_shape(self):
        assert stream_header(2, False) == ["t", "x1", "x2"]
        assert stream_header(1, True) == ["t", "x1", "label"]

    def test_equal_timestamps_allowed(self, tmp_path):
        pts = [StreamPoint((0.0,), 1.0), StreamPoint((1.0,), 1.0)]
        path = tmp_path / "s.csv"
        write_stream(path, pts, labeled=False)
        back, _ = read_stream(path)
        assert [p.t for p in back] == [1.0, 1.0]


class TestStreamErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(self.write(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(self.write(tmp_path, "time,x,y\n0,1,2\n"))

    def test_header_missing_coords(self, tmp_path):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_stream(self.write(tmp_path, "t\n0\n"))

    def test_wrong_field_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "t,x1,x2\n0,1,2\n1,3\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            read_stream(path)

    def test_unparseable_float_names_line(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n0,1\nnope,2\n")
        with pytest.raises(StreamFormatError, match="line 3"):
            read_stream(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n0,nan\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_stream(path)

    def test_backwards_time_names_line(self, tmp_path):
        path = self.write(tmp_path, "t,x1\n0,1\n2,1\n1,1\n")
        with pytest.raises(StreamFormatError, match="line 4.*backwards"):
            read_stream(path)


class TestLazyStream:
    def test_rows_are_parsed_one_at_a_time(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x1,label\n0,1,a\n1,oops,b\n")
        with open_stream(path) as (labeled, points):
            assert labeled
            assert next(points) == StreamPoint((1.0,), 0.0, "a")
            with pytest.raises(StreamFormatError, match="line 3"):
                next(points)

    def test_empty_generator_writes_a_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_stream(path, iter(()), labeled=True)
        assert path.read_text() == "t,x1,label\n"
        assert read_stream(path) == ([], True)


class TestSnapshots:
    ROWS = [(3, 3, 10.0, math.inf, (0.5, 1.5)),
            (7, 3, 4.0, 1.25, (2.0, 2.0)),
            (9, -1, 0.5, math.inf, (8.0, 8.0))]

    def test_round_trip(self, tmp_path):
        write_snapshot(tmp_path, 2, 1.5, self.ROWS)
        files = list_snapshots(tmp_path)
        assert len(files) == 1
        time, rows = read_snapshot(files[0])
        assert time == 1.5
        assert rows == self.ROWS

    def test_filenames_sort_by_index(self, tmp_path):
        for i, t in [(0, 1.0), (10, 3.0), (2, 2.0)]:
            write_snapshot(tmp_path, i, t, self.ROWS)
        names = [p.name for p in list_snapshots(tmp_path)]
        assert names == sorted(names)
        assert names[0] == snapshot_filename(0, 1.0)
        assert names[-1] == snapshot_filename(10, 3.0)

    def test_bad_name_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("cell_id,cluster_id,rho,delta,x1\n")
        with pytest.raises(StreamFormatError, match="snapshot file name"):
            read_snapshot(path)

    @pytest.mark.parametrize("row", ["1,2,x,3,4,5", "1,2,3.0"],
                             ids=["unparsable", "short"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = write_snapshot(tmp_path, 0, 1.5, self.ROWS)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + [row + "\n"] + lines[3:]))
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"{path.name}: line 4")):
            read_snapshot(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / snapshot_filename(0, 0.0)
        path.write_text("id,cluster,rho,delta\n")
        with pytest.raises(StreamFormatError, match="header"):
            read_snapshot(path)


class TestEvents:
    EVENTS = [
        EvolutionEvent(1.0, "Merge", (1, 2), (1,), cause="link-below-tau"),
        EvolutionEvent(2.0, "Adjust", (1,), (3,),
                       adjust_kind="MovedBetweenClusters", cause="relink"),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, self.EVENTS)
        assert read_events(path) == self.EVENTS

    def test_field_order_fixed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, self.EVENTS)
        first = path.read_text().splitlines()[0]
        assert first.index('"time"') < first.index('"kind"') \
            < first.index('"old_ids"') < first.index('"new_ids"') \
            < first.index('"adjust_kind"') < first.index('"cause"')

    def test_shuffled_fields_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "Merge", "time": 1.0, "old_ids": [], '
                        '"new_ids": [], "adjust_kind": null, "cause": "x"}\n')
        with pytest.raises(StreamFormatError, match="line 1"):
            read_events(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, self.EVENTS)
        path.write_text(path.read_text() + "\n\n")
        assert read_events(path) == self.EVENTS


class TestCountersAndEval:
    def test_counters_round_trip_sorted(self, tmp_path):
        path = tmp_path / "counters.csv"
        write_counters(path, {"z_last": 1, "a_first": 2})
        assert path.read_text().splitlines()[1].startswith("a_first")
        assert read_counters(path) == {"z_last": 1, "a_first": 2}

    @pytest.mark.parametrize("text, line", [
        ("counter,value\nok,1\na,x\n", 3),
        ("counter,value\na,1,2\n", 2),
        ("name,count\na,1\n", 1),
    ], ids=["not-int", "three-fields", "bad-header"])
    def test_bad_counters_name_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "counters.csv"
        path.write_text(text)
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"counters.csv: line {line}:")):
            read_counters(path)

    def test_eval_round_trip(self, tmp_path):
        path = tmp_path / "eval.csv"
        rows = [(0.5, "weighted_purity", 0.875), (1.0, "weighted_purity", 1.0)]
        write_eval(path, rows)
        assert read_eval(path) == rows


class TestUnreadableRecords:
    """A record the csv module refuses, or a bad value in a record, is a
    format error naming the file and the physical line the record starts
    on, which need not be its count."""

    LONG = "9" * 200_000

    @pytest.mark.parametrize("reader, text, line, error", [
        (read_stream, "t,x1\n0,{long}\n", 2, "field larger"),
        (read_stream, 't,x1,label\n0,1,"a\nb"\n1,{long},L\n', 4,
         "field larger"),
        (read_stream, "t,{long}\n0,1\n", 1, "field larger"),
        (read_snapshot, "cell_id,cluster_id,rho,delta,x1\n0,0,1.0,inf,0.0\n"
                        "1,0,0.5,1.0,{long}\n", 3, "field larger"),
        (read_counters, "counter,value\na,1\nb,{long}\n", 3, "field larger"),
        (read_stream, 't,x1,label\n0,1,"a\nb"\n1,x,L\n', 4,
         "could not convert"),
    ], ids=["stream", "stream-after-two-line-record", "stream-header",
            "snapshot", "counters", "bad-value-after-two-line-record"])
    def test_long_field_names_file_and_line(self, tmp_path, reader, text,
                                            line, error):
        path = tmp_path / snapshot_filename(0, 1.5)
        path.write_text(text.format(long=self.LONG), newline="")
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"{path.name}: line {line}: {error}")):
            reader(path)


class TestNonUtf8:
    @pytest.mark.parametrize("reader, text", [
        (read_stream, "t,x1\n0.0,1.0\n1.0,2.0\n"),
        (read_snapshot, "cell_id,cluster_id,rho,delta,x1\n0,0,1.0,inf,0.0\n"
                        "1,0,0.5,1.0,1.0\n"),
        (read_events, '{"time": 1.0}\n{"time": 2.0}\n{"time": 3.0}\n'),
        (read_counters, "counter,value\na,1\nb,2\n"),
        (read_eval, "time,metric,value\n0.5,m,1.0\n1.0,m,1.0\n"),
    ], ids=["stream", "snapshot", "events", "counters", "eval"])
    def test_reader_names_file_and_line(self, tmp_path, reader, text):
        path = tmp_path / snapshot_filename(0, 1.5)
        lines = text.encode().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + [b"\xff" + lines[2]]))
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"{path.name}: line 3: not UTF-8")):
            reader(path)

    @pytest.mark.parametrize("at", [0, 65532, 65535, 65538, 199_998])
    def test_line_found_across_chunks(self, tmp_path, at):
        """Lines of "é" (2 bytes) and a newline: the file is searched in
        64 KB chunks, and the first chunk ends inside a character."""
        body = ("é\n" * 150_000).encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(body[:at] + b"\xff" + body[at:])
        with pytest.raises(StreamFormatError,
                           match=re.escape(f"bad.csv: line {at // 3 + 1}: not UTF-8")):
            with open_text(path) as fh:
                fh.read()

    def test_truncated_character_at_the_end(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"counter,value\na,1\n\xc3")
        with pytest.raises(StreamFormatError,
                           match=re.escape("bad.csv: line 3: not UTF-8")):
            read_counters(path)
