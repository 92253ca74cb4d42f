"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name from outside the package.  These checks make a rename or a changed
contract fail here rather than when the benchmark runs."""

import importlib.util
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

import streampeaks.cli as cli
import streampeaks.engine as engine_module
import streampeaks.streams as streams_module
import streampeaks.tau as tau_module
from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.errors import StreamClusteringError
from streampeaks.scenarios import builtin, generate
from streampeaks.streams import open_stream, write_stream
from streampeaks.tau import candidate_taus

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    tracing = load_tracing()
    missing = [name for name, owner, attr in tracing.SPANS + tracing.COUNTED
               if attr not in owner.__dict__
               or not callable(getattr(owner, attr))]
    assert missing == []


def test_last_scan_covers_the_store_after_an_assignment():
    """The tracer counts ``cells.seeds_scanned`` as ``len(last_scan)``."""
    sp = CellSpace(DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021),
                   r=0.3, dim=2)
    for i in range(20):
        sp.assign_point(StreamPoint.of((float(i), 0.0), float(i)))
    res = sp.assign_point(StreamPoint.of((3.1, 0.0), 20.0))
    assert not res.created
    assert len(sp.last_scan) == len(sp) == 20


def test_traced_engine_run_records_the_hot_spans():
    tracing = load_tracing()
    stream = generate(builtin("mix"), seed=5)[:800]
    config = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0,
                          beta=0.0021, tau0=5.0, alpha=0.05)
    tracer = tracing.Tracer()
    with tracer.installed():
        eng = StreamEngine(config, dim=2)
        eng.initialize(stream[:500])
        for p in stream[500:]:
            eng.process_point(p)
    counters = tracer.end_pass()
    calls = {name: s["calls"] for name, s in tracer.span_summary([1.0]).items()}
    # The prefix is searched in blocks by ``assign_points``, which the
    # tracer does not wrap; only the 300 online points pass through here.
    assert calls["cells.assign_point"] == 300
    assert calls["engine.process_point"] == 300
    assert calls["deptree.PointDistances"] > 0
    assert counters["cells.seeds_scanned"] > 0


def test_engine_looks_up_the_tau_functions_by_name():
    """The tracer times ``tau.select_tau`` and ``tau.candidate_taus``
    where the engine looks them up."""
    assert engine_module.select_tau is tau_module.select_tau
    assert engine_module.candidate_taus is tau_module.candidate_taus


def test_every_sweep_with_a_candidate_calls_the_objective(monkeypatch):
    """The tracer counts ``tau.objective_calls`` by wrapping
    ``streampeaks.tau.objective``.  A sweep with a candidate tau must
    reach it, so the counter never reads 0 on a working run."""
    calls = []
    exact = tau_module.objective
    monkeypatch.setattr(tau_module, "objective",
                        lambda *a: calls.append(a) or exact(*a))
    select = engine_module.select_tau
    sweeps = []

    def counted(alpha, deltas, **kw):
        before = len(calls)
        tau = select(alpha, deltas, **kw)
        sweeps.append((bool(candidate_taus(deltas)), len(calls) - before))
        return tau

    monkeypatch.setattr(engine_module, "select_tau", counted)
    stream = generate(builtin("mix"), seed=5)[:1500]
    config = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0,
                          beta=0.0021, tau0=5.0, alpha=0.05)
    eng = StreamEngine(config, dim=2)
    eng.initialize(stream[:500])
    for p in stream[500:]:
        eng.process_point(p)
    assert len(sweeps) == 10 and all(has for has, _ in sweeps)
    assert all(n >= 1 for _, n in sweeps)


# The CLI workload times ``run`` by swapping ``cli._resume`` for a
# wrapper that replaces the returned engine's ``process_point``.

RUN_CONFIG = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                          tau0=5.0, alpha=0.05, sweep_interval=100)


@pytest.fixture()
def cli_run(tmp_path):
    """A 900-point mix stream and the state of its 500-point prefix."""
    stream = generate(builtin("mix"), seed=5)[:900]
    ns = SimpleNamespace(stream=tmp_path / "stream.csv",
                         init=tmp_path / "init.csv",
                         config=tmp_path / "run.conf",
                         state=tmp_path / "state.json", consumed=500,
                         total=len(stream))
    write_stream(ns.stream, stream, labeled=True)
    write_stream(ns.init, stream[:ns.consumed], labeled=True)
    ns.config.write_text("".join(
        f"{k} = {v}\n" for k, v in RUN_CONFIG.to_mapping().items()))
    assert cli.main(["init", str(ns.init), "--config", str(ns.config),
                     "--state", str(ns.state)]) == 0
    return ns


def test_run_looks_up_resume_at_call_time(cli_run, monkeypatch):
    calls = []
    resume = cli._resume
    monkeypatch.setattr(cli, "_resume",
                        lambda *args: calls.append(args) or resume(*args))
    assert cli.main(["run", str(cli_run.stream),
                     "--state", str(cli_run.state)]) == 0
    assert len(calls) == 1


def test_resume_takes_exactly_the_prefix(cli_run):
    taken = []
    with open_stream(cli_run.stream) as (_, points):
        engine, rest = cli._resume(
            str(cli_run.state), (taken.append(p) or p for p in points))
        assert len(taken) == cli_run.consumed
        assert engine.counters()["points"] == cli_run.consumed
        after = next(rest)
    assert after == generate(builtin("mix"), seed=5)[cli_run.consumed]


def test_each_later_point_is_processed_one_row_behind_the_reader(
        cli_run, monkeypatch):
    read, seen = [0], []
    open_real, resume = cli.open_stream, cli._resume

    @contextmanager
    def counted_open(path):
        def counted(points):
            for p in points:
                read[0] += 1
                yield p
        with open_real(path) as (labeled, points):
            yield labeled, counted(points)

    def timed_resume(*args):
        engine, rest = resume(*args)
        process = engine.process_point

        def recorded(p):
            seen.append(read[0])
            return process(p)

        engine.process_point = recorded
        return engine, rest

    monkeypatch.setattr(cli, "open_stream", counted_open)
    monkeypatch.setattr(cli, "_resume", timed_resume)
    assert cli.main(["run", str(cli_run.stream),
                     "--state", str(cli_run.state)]) == 0
    # The k-th later point reaches process_point when the reader has
    # returned the prefix and exactly k rows after it.
    later = cli_run.total - cli_run.consumed
    assert seen == [cli_run.consumed + k for k in range(1, later + 1)]


def spoil_row(path: Path, index: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = "x" + lines[index]
    path.write_text("".join(lines))


@pytest.mark.parametrize("fault, code", [
    (None, 0),
    ("late-row", 3),
    ("short-stream", 2),
    ("engine", 2),
])
def test_input_file_is_closed_when_run_returns(cli_run, monkeypatch, fault,
                                               code):
    handles = []
    open_real = streams_module.open_text

    @contextmanager
    def recorded_open(*args, **kw):
        with open_real(*args, **kw) as fh:
            handles.append(fh)
            yield fh

    monkeypatch.setattr(streams_module, "open_text", recorded_open)
    if fault == "late-row":
        spoil_row(cli_run.stream, 700)
    elif fault == "short-stream":
        cli_run.stream.write_text("t,x1,x2,label\n")
    elif fault == "engine":
        def refuse(self, p):
            raise StreamClusteringError("refused")
        monkeypatch.setattr(StreamEngine, "process_point", refuse)
    assert cli.main(["run", str(cli_run.stream),
                     "--state", str(cli_run.state)]) == code
    assert len(handles) == 1 and handles[0].closed
