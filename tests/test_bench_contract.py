"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name from outside the package.  These checks make a rename or a changed
contract fail here rather than when the benchmark runs."""

import importlib.util
from pathlib import Path

import streampeaks.engine as engine_module
import streampeaks.tau as tau_module
from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.scenarios import builtin, generate
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
