"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name from outside the package.  These checks make a rename or a changed
contract fail here rather than when the benchmark runs."""

import importlib.util
from pathlib import Path

from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.scenarios import builtin, generate

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
    assert calls["cells.assign_point"] == 800
    assert calls["engine.process_point"] == 300
    assert calls["deptree.PointDistances"] > 0
    assert counters["cells.seeds_scanned"] > 0
