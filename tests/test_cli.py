"""Command-line round trips and exit codes."""

import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import streampeaks.cli as cli
from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.cli import main
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.errors import MissingLabels
from streampeaks.reference import LabeledAssignment, weighted_purity
from streampeaks.scenarios import builtin
from streampeaks.streams import (
    list_snapshots,
    read_counters,
    read_snapshot,
    read_stream,
    write_stream,
)

from _oracles import read_eval, read_events

SDS_CONFIG = """\
r = 1.6
a = 0.998
lambda = 1000
v = 1000
beta = 0.0021
tau0 = 5
sweep_interval = 100
"""

MIX_CONFIG = """\
r = 1.6
a = 0.998
lambda = 1000
v = 1000
beta = 0.0021
tau0 = 5
alpha = 0.05
sweep_interval = 100
"""

HDS_CONFIG = """\
r = 2.0
a = 0.998
lambda = 500
v = 500
beta = 0.0042
tau0 = 6
alpha = 0.05
sweep_interval = 100
"""

TOY_CONFIG = """\
r = 1.0
a = 0.8
lambda = 1.0
v = 4.0
beta = 0.10
tau0 = 5.0
alpha = 0.2
init_cell_count = 2
sweep_interval = 4
"""


def toy_points(n=28):
    """Two well-separated blobs of two cells each, strictly alternating."""
    xs = [0.0, 10.0, 1.5, 11.5]
    labels = ["L", "R", "L", "R"]
    return [StreamPoint((xs[i % 4],), 0.25 * i, labels[i % 4])
            for i in range(n)]


def prefix_file(src: Path, dst: Path, rows: int) -> None:
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(lines[:rows + 1]))


def round_trip(root: Path, scenario: str, seed: int, config: str,
               init_rows: int) -> SimpleNamespace:
    """gen -> init -> run -> eval, asserting exit 0 at every stage."""
    ns = SimpleNamespace(
        stream=root / "stream.csv", init=root / "init.csv",
        config=root / "run.conf", state=root / "state.json",
        graph=root / "graph.csv", events=root / "events.jsonl",
        snapshots=root / "snaps", counters=root / "counters.csv",
        scores=root / "eval.csv")
    ns.config.write_text(config)
    assert main(["gen", "--scenario", scenario, "--seed", str(seed),
                 "--out", str(ns.stream)]) == 0
    prefix_file(ns.stream, ns.init, init_rows)
    assert main(["init", str(ns.init), "--config", str(ns.config),
                 "--state", str(ns.state),
                 "--emit-decision-graph", str(ns.graph)]) == 0
    assert main(["run", str(ns.stream), "--state", str(ns.state),
                 "--events", str(ns.events),
                 "--snapshots", str(ns.snapshots),
                 "--counters", str(ns.counters)]) == 0
    assert main(["eval", str(ns.stream), "--state", str(ns.state),
                 "--snapshots", str(ns.snapshots),
                 "--out", str(ns.scores)]) == 0
    return ns


def reference_eval(ns: SimpleNamespace) -> list[tuple[float, str, float]]:
    """Eval rows computed apart from the CLI: the prefix's cells come
    from replaying it into a bare cell store (initialization does not
    recycle, so the store matches), the rest from ``last_assign``, and
    each sweep is scored on the engine's own clustering."""
    points, _ = read_stream(ns.stream)
    state = json.loads(ns.state.read_text())
    config = EngineConfig.from_mapping(state["config"])
    consumed, dim = state["consumed"], state["dim"]
    shadow = CellSpace(config.decay_params(), config.r, dim)
    assignments = []
    for p in points[:consumed]:
        res = shadow.assign_point(p)
        if p.label is not None:
            assignments.append(LabeledAssignment(res.cell_id, p.label, p.t))
    engine = StreamEngine(replace(config, alpha=state["alpha"]), dim=dim)
    engine.initialize(points[:consumed])
    rows = []
    for p in points[consumed:]:
        sweeps = engine.sweep_count
        engine.process_point(p)
        if p.label is not None:
            assignments.append(
                LabeledAssignment(engine.last_assign.cell_id, p.label, p.t))
        if engine.sweep_count > sweeps:
            try:
                rows.append((engine.now, "weighted_purity",
                             weighted_purity(engine.last_snapshot, assignments,
                                             engine.params, engine.now)))
            except MissingLabels:
                pass
    return rows


@pytest.fixture(scope="module")
def sds_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sds")
    return round_trip(root, "sds", 7, SDS_CONFIG, init_rows=1000)


@pytest.fixture()
def toy_run(tmp_path):
    points = toy_points()
    ns = SimpleNamespace(
        stream=tmp_path / "toy.csv", init=tmp_path / "toy_init.csv",
        config=tmp_path / "toy.conf", state=tmp_path / "state.json",
        graph=tmp_path / "graph.csv", events=tmp_path / "events.jsonl",
        snapshots=tmp_path / "snaps", counters=tmp_path / "counters.csv",
        scores=tmp_path / "eval.csv")
    write_stream(ns.stream, points, labeled=True)
    write_stream(ns.init, points[:12], labeled=True)
    ns.config.write_text(TOY_CONFIG)
    assert main(["init", str(ns.init), "--config", str(ns.config),
                 "--state", str(ns.state),
                 "--emit-decision-graph", str(ns.graph)]) == 0
    assert main(["run", str(ns.stream), "--state", str(ns.state),
                 "--events", str(ns.events),
                 "--snapshots", str(ns.snapshots),
                 "--counters", str(ns.counters)]) == 0
    return ns


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["gen", "--scenario", "hds", "--seed", "3",
                     "--out", str(a)]) == 0
        assert main(["gen", "--scenario", "hds", "--seed", "3",
                     "--out", str(b)]) == 0
        assert main(["gen", "--scenario", "hds", "--seed", "4",
                     "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_output_is_labeled(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["gen", "--scenario", "hds", "--seed", "1",
                     "--out", str(out)]) == 0
        points, labeled = read_stream(out)
        assert labeled
        assert len(points) == 5000
        assert len(points[0].coords) == 8

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "gen", "--scenario", "sds",
             "--seed", "-1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_unknown_scenario_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--scenario", "nope",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestInit:
    def test_state_contents(self, sds_run):
        state = json.loads(sds_run.state.read_text())
        assert state["alpha"] == pytest.approx(0.01)
        assert state["alpha_learned"] is True
        assert state["consumed"] == 1000
        assert state["dim"] == 2
        assert state["initial_clusters"] == 2
        assert state["config"]["r"] == "1.6"

    def test_decision_graph_contents(self, toy_run):
        lines = toy_run.graph.read_text().splitlines()
        assert lines[0] == "cell_id,rho,delta"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert [float(r[2]) for r in rows] == [1.5, 1.5, 10.0, 11.0]

    def test_explicit_alpha_skips_learning(self, toy_run):
        state = json.loads(toy_run.state.read_text())
        assert state["alpha"] == 0.2
        assert state["alpha_learned"] is False
        assert state["consumed"] == 12
        assert state["initial_clusters"] == 2

    def test_tau0_flag_overrides_config(self, tmp_path):
        write_stream(tmp_path / "toy.csv", toy_points(12), labeled=True)
        (tmp_path / "toy.conf").write_text(TOY_CONFIG)
        assert main(["init", str(tmp_path / "toy.csv"),
                     "--config", str(tmp_path / "toy.conf"),
                     "--state", str(tmp_path / "state.json"),
                     "--tau0", "4.0"]) == 0
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["config"]["tau0"] == "4.0"

    def test_missing_tau0_is_a_config_error(self, tmp_path, capsys):
        write_stream(tmp_path / "toy.csv", toy_points(12), labeled=True)
        config = "\n".join(line for line in TOY_CONFIG.splitlines()
                           if not line.startswith("tau0")) + "\n"
        (tmp_path / "toy.conf").write_text(config)
        code = main(["init", str(tmp_path / "toy.csv"),
                     "--config", str(tmp_path / "toy.conf"),
                     "--state", str(tmp_path / "state.json")])
        assert code == 2
        assert "tau0" in capsys.readouterr().err

    def test_empty_stream_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("t,x1,label\n")
        (tmp_path / "toy.conf").write_text(TOY_CONFIG)
        code = main(["init", str(tmp_path / "empty.csv"),
                     "--config", str(tmp_path / "toy.conf"),
                     "--state", str(tmp_path / "state.json")])
        assert code == 2
        assert "no points" in capsys.readouterr().err


class TestRunOutputs:
    def test_one_snapshot_per_sweep(self, sds_run):
        files = list_snapshots(sds_run.snapshots)
        assert len(files) == 190
        times = [read_snapshot(f)[0] for f in files[:3]]
        assert times == sorted(times)

    def test_event_lines_keep_field_order(self, sds_run):
        first = sds_run.events.read_text().splitlines()[0]
        assert list(json.loads(first)) == [
            "time", "kind", "old_ids", "new_ids", "adjust_kind", "cause"]
        assert len(read_events(sds_run.events)) > 0

    def test_counters(self, sds_run):
        counters = read_counters(sds_run.counters)
        assert counters["points"] == 20000
        assert counters["sweeps"] == 190
        assert counters["new_cells"] > 0
        assert counters["recycled_cells"] > 0

    def test_outputs_are_optional(self, tmp_path):
        points = toy_points()
        write_stream(tmp_path / "toy.csv", points, labeled=True)
        write_stream(tmp_path / "init.csv", points[:12], labeled=True)
        (tmp_path / "toy.conf").write_text(TOY_CONFIG)
        assert main(["init", str(tmp_path / "init.csv"),
                     "--config", str(tmp_path / "toy.conf"),
                     "--state", str(tmp_path / "state.json")]) == 0
        assert main(["run", str(tmp_path / "toy.csv"),
                     "--state", str(tmp_path / "state.json")]) == 0


class TestExitCodes:
    def test_run_on_shorter_stream_than_state(self, toy_run, tmp_path,
                                              capsys):
        short = tmp_path / "short.csv"
        write_stream(short, toy_points(6), labeled=True)
        code = main(["run", str(short), "--state", str(toy_run.state)])
        assert code == 2
        assert "consumed" in capsys.readouterr().err

    def test_run_on_wrong_dimension(self, toy_run, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        points = [StreamPoint((p.coords[0], 0.0), p.t, p.label)
                  for p in toy_points()]
        write_stream(wide, points, labeled=True)
        code = main(["run", str(wide), "--state", str(toy_run.state)])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err

    def test_state_with_unknown_config_key(self, toy_run, tmp_path, capsys):
        state = json.loads(toy_run.state.read_text())
        state["config"]["tua0"] = state["config"].pop("tau0")
        bad = tmp_path / "bad_state.json"
        bad.write_text(json.dumps(state))
        code = main(["run", str(toy_run.stream), "--state", str(bad)])
        assert code == 2
        assert "unknown key 'tua0'" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda s: [s],
        lambda s: {**s, "config": list(s["config"])},
        lambda s: {**s, "config": {**s["config"], "recycle": True}},
        lambda s: {**s, "consumed": -5},
        lambda s: {**s, "alpha": str(s["alpha"])},
        lambda s: {**s, "dim": float(s["dim"])},
        lambda s: {**s, "config": {**s["config"], "filters": "density-only"}},
    ], ids=["list-at-top", "config-as-list", "recycle-as-bool",
            "consumed-negative", "alpha-as-string", "dim-as-float",
            "filters-density-only"])
    def test_malformed_state_is_a_config_error(self, toy_run, tmp_path,
                                               capsys, corrupt):
        state = json.loads(toy_run.state.read_text())
        bad = tmp_path / "bad_state.json"
        bad.write_text(json.dumps(corrupt(state)))
        code = main(["run", str(toy_run.stream), "--state", str(bad)])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        lambda ns, missing: ["init", str(ns.init), "--config", missing,
                             "--state", str(ns.state)],
        lambda ns, missing: ["run", missing, "--state", str(ns.state)],
        lambda ns, missing: ["run", str(ns.stream), "--state", missing],
    ], ids=["init-config", "run-stream", "run-state"])
    def test_missing_file_is_a_usage_error(self, toy_run, tmp_path, argv):
        missing = str(tmp_path / "missing")
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", *argv(toy_run, missing)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert missing in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target, argv, code", [
        ("config", lambda ns, bad: ["init", str(ns.init), "--config", bad,
                                    "--state", str(ns.state)], 2),
        ("state", lambda ns, bad: ["run", str(ns.stream), "--state", bad], 2),
        ("init", lambda ns, bad: ["init", bad, "--config", str(ns.config),
                                  "--state", str(ns.state)], 3),
        ("stream", lambda ns, bad: ["run", bad, "--state", str(ns.state)], 3),
    ], ids=["init-config", "run-state", "init-stream", "run-stream"])
    def test_non_utf8_byte_is_reported_not_raised(self, toy_run, tmp_path,
                                                  target, argv, code):
        """Byte 0xff on line 3 of an otherwise valid file."""
        lines = getattr(toy_run, target).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        bad = tmp_path / f"bad_{target}"
        bad.write_bytes(b"".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", *argv(toy_run, str(bad))],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 3:
            assert f"{bad.name}: line 3: not UTF-8 text" in proc.stderr

    def test_eval_on_non_utf8_snapshot_is_a_format_error(self, toy_run,
                                                         tmp_path, capsys):
        first = list_snapshots(toy_run.snapshots)[0]
        first.write_bytes(first.read_bytes().replace(b"\n", b"\n\xff", 1))
        code = main(["eval", str(toy_run.stream),
                     "--state", str(toy_run.state),
                     "--snapshots", str(toy_run.snapshots),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 3
        assert f"{first.name}: line 2: not UTF-8 text" in capsys.readouterr().err

    def test_eval_on_corrupt_snapshot_is_a_format_error(self, toy_run,
                                                        tmp_path, capsys):
        first = list_snapshots(toy_run.snapshots)[0]
        lines = first.read_text().splitlines(keepends=True)
        first.write_text("".join([lines[0], "1,2,x,3,4\n"] + lines[2:]))
        code = main(["eval", str(toy_run.stream),
                     "--state", str(toy_run.state),
                     "--snapshots", str(toy_run.snapshots),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert first.name in err and "line 2" in err

    def test_malformed_row_reports_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1,label\n"
                       "0.0,0.0,L\n"
                       "0.25,10.0,R\n"
                       "0.5,1.5,L\n"
                       "0.75,oops,R\n")
        (tmp_path / "toy.conf").write_text(TOY_CONFIG)
        code = main(["init", str(bad),
                     "--config", str(tmp_path / "toy.conf"),
                     "--state", str(tmp_path / "state.json")])
        assert code == 3
        assert "line 5" in capsys.readouterr().err

    def test_overlong_field_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1\n0," + "9" * 200_000 + "\n")
        (tmp_path / "toy.conf").write_text(TOY_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "init", str(bad),
             "--config", str(tmp_path / "toy.conf"),
             "--state", str(tmp_path / "state.json")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "bad.csv: line 2: field larger than field limit" in proc.stderr

    def test_unmatched_quote_in_run_names_its_line(self, sds_run, tmp_path):
        """A `"` opening line 3,001 swallows the rest of the stream into
        one field that outgrows the csv module's limit."""
        lines = sds_run.stream.read_bytes().splitlines(keepends=True)
        assert len(lines) == 20_001
        lines[3000] = b'"' + lines[3000]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "run", str(bad),
             "--state", str(sds_run.state)],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "bad.csv: line 3001: " in proc.stderr

    def test_eval_requires_labels(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        write_stream(plain, toy_points(), labeled=False)
        code = main(["eval", str(plain),
                     "--state", str(tmp_path / "missing.json"),
                     "--snapshots", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 4
        assert "labels" in capsys.readouterr().err

    def test_eval_with_wrong_snapshot_dir(self, toy_run, tmp_path, capsys):
        empty = tmp_path / "empty_snaps"
        empty.mkdir()
        code = main(["eval", str(toy_run.stream),
                     "--state", str(toy_run.state),
                     "--snapshots", str(empty),
                     "--out", str(tmp_path / "eval.csv")])
        assert code == 2
        assert "snapshot" in capsys.readouterr().err

    def test_missing_required_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["init", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def mix_state(tmp_path_factory):
    """A 10 s mix stream and the state of its 500-row prefix."""
    root = tmp_path_factory.mktemp("mix")
    ns = SimpleNamespace(stream=root / "stream.csv", init=root / "init.csv",
                         config=root / "run.conf", state=root / "state.json")
    ns.config.write_text(MIX_CONFIG)
    assert main(["gen", "--scenario", "mix", "--seed", "5",
                 "--out", str(ns.stream)]) == 0
    prefix_file(ns.stream, ns.init, 500)
    assert main(["init", str(ns.init), "--config", str(ns.config),
                 "--state", str(ns.state)]) == 0
    return ns


def snapshot_bytes(snapshots: Path) -> list[tuple[str, bytes]]:
    return [(p.name, p.read_bytes()) for p in list_snapshots(snapshots)]


class TestMidStreamFailure:
    """``run`` parses as it goes, so a bad row after the prefix stops it
    after the sweeps of the rows before it."""

    LINE = 2000

    def run_with_bad_line(self, mix_state, tmp_path, spoil):
        lines = mix_state.stream.read_bytes().splitlines(keepends=True)
        before, line, after = (lines[:self.LINE - 1], lines[self.LINE - 1],
                               lines[self.LINE:])
        assert sum(map(len, before)) > 8192
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(before + [spoil(line)] + after))
        good = tmp_path / "good.csv"
        good.write_bytes(b"".join(before))
        assert main(["run", str(good), "--state", str(mix_state.state),
                     "--snapshots", str(tmp_path / "good_snaps")]) == 0
        out = SimpleNamespace(events=tmp_path / "events.jsonl",
                              counters=tmp_path / "counters.csv",
                              snapshots=tmp_path / "snaps")
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "run", str(bad),
             "--state", str(mix_state.state), "--events", str(out.events),
             "--snapshots", str(out.snapshots),
             "--counters", str(out.counters)],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert not out.events.exists() and not out.counters.exists()
        return proc.stderr, snapshot_bytes(out.snapshots), \
            snapshot_bytes(tmp_path / "good_snaps")

    def test_malformed_row_keeps_every_earlier_sweep(self, mix_state,
                                                     tmp_path):
        err, written, expected = self.run_with_bad_line(
            mix_state, tmp_path, lambda line: line.replace(b",", b",oops", 1))
        assert f"line {self.LINE}:" in err
        assert len(expected) > 10
        assert written == expected

    def test_non_utf8_byte_keeps_the_sweeps_before_its_chunk(self, mix_state,
                                                             tmp_path):
        """Text is decoded 8 KB ahead of the parser, so the sweeps of the
        rows that share the bad byte's chunk may be missing."""
        err, written, expected = self.run_with_bad_line(
            mix_state, tmp_path, lambda line: b"\xff" + line)
        assert f"bad.csv: line {self.LINE}: not UTF-8 text" in err
        assert len(written) > 10
        assert written == expected[:len(written)]


def traced_peak_mb(argv: list[str], code: int = 0) -> float:
    """The tracemalloc peak of ``main(argv)``, which must exit with
    ``code``, in MB."""
    tracemalloc.start()
    try:
        assert main(argv) == code
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemoryIsBoundedByState:
    """``gen`` and ``run`` hold the engine's state, not the stream."""

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory, mix_state):
        """Mix streams of 2 s and 20 s; both start with the prefix that
        ``mix_state`` consumed, and ``gen`` of the longer one is traced."""
        root = tmp_path_factory.mktemp("long")
        paths, gen_peaks = {}, {}
        with pytest.MonkeyPatch.context() as mp:
            for seconds in (2.0, 20.0):
                mp.setattr(cli, "builtin", lambda name, d=seconds:
                           replace(builtin(name), duration=d))
                paths[seconds] = root / f"mix{int(seconds)}.csv"
                gen_peaks[seconds] = traced_peak_mb(
                    ["gen", "--scenario", "mix", "--seed", "5",
                     "--out", str(paths[seconds])])
        head = mix_state.init.read_bytes()
        assert all(p.read_bytes().startswith(head) for p in paths.values())
        return paths, gen_peaks

    def test_gen(self, streams):
        _, gen_peaks = streams
        assert gen_peaks[20.0] < 1.0

    def test_run(self, streams, mix_state, tmp_path):
        paths, _ = streams
        peaks = {}
        for seconds, path in paths.items():
            out = tmp_path / str(int(seconds))
            peaks[seconds] = traced_peak_mb(
                ["run", str(path), "--state", str(mix_state.state),
                 "--events", str(out / "events.jsonl"),
                 "--snapshots", str(out / "snaps"),
                 "--counters", str(out / "counters.csv")])
        assert peaks[20.0] < 1.0
        assert peaks[20.0] - peaks[2.0] < 0.5

    def test_run_finding_a_late_non_utf8_byte(self, streams, mix_state,
                                              tmp_path, capsys):
        """The bad byte's line is found without reading the file whole."""
        paths, _ = streams
        data = paths[20.0].read_bytes()
        lines = data.count(b"\n")
        assert lines > 20_000
        at = data.rindex(b"\n", 0, len(data) - 1000) + 1
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        peak = traced_peak_mb(["run", str(bad), "--state", str(mix_state.state),
                               "--snapshots", str(tmp_path / "snaps")], code=3)
        line = data.count(b"\n", 0, at) + 1
        assert f"bad.csv: line {line}: not UTF-8 text" in capsys.readouterr().err
        assert peak < 1.0


class TestEvalScores:
    def test_disjoint_blobs_score_pure(self, toy_run, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", str(toy_run.stream),
                     "--state", str(toy_run.state),
                     "--snapshots", str(toy_run.snapshots),
                     "--out", str(out)]) == 0
        rows = read_eval(out)
        assert [t for t, _, _ in rows] == [3.75, 4.75, 5.75, 6.75]
        for _, metric, value in rows:
            assert metric == "weighted_purity"
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_purity_tracks_the_planted_phases(self, sds_run):
        rows = read_eval(sds_run.scores)
        assert rows
        assert all(0.5 <= value <= 1.0 for _, _, value in rows)
        early = [v for t, _, v in rows if 1.2 <= t <= 5.0]
        assert early and min(early) >= 0.95
        recovered = [v for t, _, v in rows if t >= 19.0]
        assert recovered and min(recovered) >= 0.95

    def test_scores_equal_the_reference_exactly(self, sds_run):
        assert read_eval(sds_run.scores) == reference_eval(sds_run)


class TestBuiltinRoundTrips:
    def test_sds(self, sds_run):
        assert read_eval(sds_run.scores)

    def test_mix(self, tmp_path):
        ns = round_trip(tmp_path, "mix", 5, MIX_CONFIG, init_rows=500)
        assert read_eval(ns.scores) == reference_eval(ns) != []

    def test_hds(self, tmp_path):
        ns = round_trip(tmp_path, "hds", 3, HDS_CONFIG, init_rows=500)
        assert read_eval(ns.scores)


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "gen",
             "--scenario", "hds", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_help_lists_subcommands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "streampeaks", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("gen", "init", "run", "eval"):
            assert name in proc.stdout
