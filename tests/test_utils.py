"""Utilities: RNG threading and timers."""

import time

import numpy as np
import pytest

from repro.utils import Timer, ensure_rng, median_mad, spawn


class TestRng:
    def test_ensure_rng_from_int(self):
        a, b = ensure_rng(7), ensure_rng(7)
        assert a.random() == b.random()

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_independent(self):
        children = spawn(ensure_rng(0), 3)
        assert len(children) == 3
        vals = [c.random() for c in children]
        assert len(set(vals)) == 3


class TestTimer:
    def test_measure_accumulates(self):
        timer = Timer()
        for _ in range(3):
            with timer.measure("op"):
                time.sleep(0.001)
        assert timer.count("op") == 3
        assert timer.total("op") >= 0.003
        assert timer.mean("op") == pytest.approx(timer.total("op") / 3)

    def test_unknown_span_zero(self):
        timer = Timer()
        assert timer.total("nope") == 0.0
        assert timer.mean("nope") == 0.0
        assert timer.count("nope") == 0

    def test_exception_still_recorded(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            with timer.measure("op"):
                raise RuntimeError("boom")
        assert timer.count("op") == 1


def test_median_mad():
    assert median_mad([3.0, 1.0, 2.0]) == (2.0, 1.0)
    assert median_mad([5.0]) == (5.0, 0.0)
    with pytest.raises(ValueError):
        median_mad([])


def _blas_threads():
    from repro.utils import blas
    return [getter() for _, getter in blas._controls]


@pytest.fixture
def openblas():
    """The loaded OpenBLAS thread controls; skips where there are none."""
    from repro.utils import blas
    with blas.single_threaded_blas():
        pass
    if not blas._controls:
        pytest.skip("no OpenBLAS thread-count entry point loaded")
    before = _blas_threads()
    yield before
    assert _blas_threads() == before


class TestSingleThreadedBlas:
    def test_limits_then_restores(self, openblas):
        from repro.utils.blas import single_threaded_blas
        with single_threaded_blas():
            assert _blas_threads() == [1] * len(openblas)
            with single_threaded_blas():
                assert _blas_threads() == [1] * len(openblas)
            assert _blas_threads() == [1] * len(openblas)
        assert _blas_threads() == openblas

    def test_overlapping_blocks_restore_once_the_last_leaves(self, openblas):
        # concurrent callers leave in any order, not only LIFO
        from repro.utils.blas import single_threaded_blas
        first, second = single_threaded_blas(), single_threaded_blas()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _blas_threads() == [1] * len(openblas)
        second.__exit__(None, None, None)
        assert _blas_threads() == openblas

    def test_restores_after_an_exception(self, openblas):
        from repro.utils.blas import single_threaded_blas
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                raise RuntimeError("boom")
        assert _blas_threads() == openblas

    def test_scoring_pass_runs_single_threaded(self, openblas, monkeypatch):
        import repro.core.model as model_mod
        from repro.core import UMGAD, UMGADConfig
        from repro.graphs import random_multiplex

        graph = random_multiplex(60, 2, 8, np.random.default_rng(0),
                                 avg_degree=3.0)
        model = UMGAD(UMGADConfig(epochs=1, seed=0)).fit(graph)
        seen = []
        combine = model_mod.combine_view_score

        def spy(*args, **kwargs):
            seen.append(_blas_threads())
            return combine(*args, **kwargs)

        monkeypatch.setattr(model_mod, "combine_view_score", spy)
        model.score_graph(random_multiplex(50, 2, 8,
                                           np.random.default_rng(1),
                                           avg_degree=3.0))
        assert seen and all(t == [1] * len(openblas) for t in seen)
        assert _blas_threads() == openblas
