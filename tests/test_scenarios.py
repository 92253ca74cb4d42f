"""Planted-scenario generation: determinism, timelines, ground truth."""

import math

import pytest

from streampeaks.errors import ConfigError
from streampeaks.scenarios import (
    CLIP_SIGMAS,
    GaussianSource,
    PlantedScenario,
    UniformSource,
    builtin,
    builtin_names,
    draw_stream,
    generate,
)


def still_source(name="S", center=(0.0, 0.0), share=1.0, **kw):
    return GaussianSource(name=name, stddev=1.0, path=((0.0, center),),
                          share=((0.0, share),), **kw)


class TestGenerate:
    def test_deterministic_in_seed(self):
        sc = builtin("mix")
        assert generate(sc, seed=3) == generate(sc, seed=3)

    def test_seed_changes_the_draw(self):
        sc = builtin("mix")
        a, b = generate(sc, seed=1), generate(sc, seed=2)
        assert [p.coords for p in a] != [p.coords for p in b]

    def test_arrival_grid(self):
        sc = PlantedScenario("g", 2, rate=10.0, duration=1.0,
                             sources=(still_source(),))
        pts = generate(sc, seed=0)
        assert len(pts) == 10
        assert [p.t for p in pts] == [i / 10.0 for i in range(10)]

    def test_labels_name_the_source(self):
        sc = PlantedScenario(
            "g", 2, rate=100.0, duration=1.0,
            sources=(still_source("a", (-20.0, 0.0), 0.5),
                     still_source("b", (20.0, 0.0), 0.5)))
        pts = generate(sc, seed=0)
        assert {p.label for p in pts} == {"a", "b"}
        for p in pts:
            # clipped Gaussians cannot stray past 3 sigma from center
            expect = -20.0 if p.label == "a" else 20.0
            assert abs(p.coords[0] - expect) <= CLIP_SIGMAS

    def test_dead_source_emits_nothing(self):
        sc = PlantedScenario(
            "g", 2, rate=100.0, duration=2.0,
            sources=(still_source("a", share=1.0, birth=0.0, death=1.0),
                     still_source("b", share=1.0, birth=1.0)))
        pts = generate(sc, seed=0)
        assert all(p.label == "a" for p in pts if p.t < 1.0)
        assert all(p.label == "b" for p in pts if p.t >= 1.0)

    def test_shares_must_sum_to_one(self):
        sc = PlantedScenario("g", 2, rate=10.0, duration=1.0,
                             sources=(still_source(share=0.7),))
        with pytest.raises(ConfigError, match="sum"):
            generate(sc, seed=0)

    def test_negative_seed_is_a_config_error_before_any_draw(self):
        with pytest.raises(ConfigError, match="seed"):
            draw_stream(builtin("sds"), -1)
        with pytest.raises(ConfigError, match="seed"):
            generate(builtin("sds"), -1)

    def test_uniform_source_stays_in_box(self):
        noise = UniformSource("n", low=(-1.0, 2.0), high=(1.0, 3.0),
                              share=((0.0, 1.0),))
        sc = PlantedScenario("g", 2, rate=200.0, duration=1.0, sources=(noise,))
        for p in generate(sc, seed=4):
            assert -1.0 <= p.coords[0] <= 1.0
            assert 2.0 <= p.coords[1] <= 3.0


class TestTimelines:
    def test_center_path_interpolates(self):
        src = GaussianSource("m", 1.0,
                             path=((0.0, (0.0, 0.0)), (10.0, (10.0, 0.0))),
                             share=((0.0, 1.0),))
        assert src.center(-1.0) == (0.0, 0.0)
        assert src.center(5.0) == (5.0, 0.0)
        assert src.center(99.0) == (10.0, 0.0)

    def test_share_curve_interpolates(self):
        curve = GaussianSource("m", 1.0, path=((0.0, (0.0, 0.0)),),
                               share=((1.0, 0.0), (3.0, 1.0)))
        assert curve.share_at(0.0) == 0.0
        assert curve.share_at(2.0) == 0.5
        assert curve.share_at(3.0) == 1.0
        assert curve.share_at(50.0) == 1.0

    def test_live_at_respects_birth_and_death(self):
        a = still_source("a", death=5.0)
        b = still_source("b", birth=5.0)
        sc = PlantedScenario("g", 2, rate=1.0, duration=10.0, sources=(a, b))
        assert [s.name for s in sc.live_at(0.0)] == ["a"]
        # the death instant itself belongs to the successor
        assert [s.name for s in sc.live_at(5.0)] == ["b"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            PlantedScenario("g", 2, rate=0.0, duration=1.0,
                            sources=(still_source(),))
        with pytest.raises(ConfigError):
            PlantedScenario("g", 2, rate=1.0, duration=1.0, sources=())


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["hds", "mix", "sds"]

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            builtin("nope")

    def test_sds_shape(self):
        pts = generate(builtin("sds"), seed=7)
        assert len(pts) == 20000
        assert pts[-1].t < 20.0
        assert all(len(p.coords) == 2 for p in pts)

    def test_sds_share_handoff_is_consistent(self):
        # the narrative crossfades sources; every instant must stay a
        # valid distribution or generate() would refuse mid-stream
        pts = generate(builtin("sds"), seed=0)
        labels = {p.label for p in pts}
        assert labels == {"L", "R", "N1", "N2"}
        assert all(p.label in ("N1", "N2") for p in pts if p.t >= 13.9)

    def test_hds_dim(self):
        sc = builtin("hds")
        assert sc.dim == 8
        pts = generate(sc, seed=0)
        assert len(pts[0].coords) == 8

    def test_mix_runs(self):
        pts = generate(builtin("mix"), seed=0)
        assert len(pts) == 10000
