"""Tests for :func:`repro.runtime.gc_paused` and the stages it wraps."""

from __future__ import annotations

import gc

import pytest

from repro.core.taxonomy import classify
from repro.runtime import ProcessPoolBackend, gc_paused
from repro.simulation import datasets
from repro.simulation.config import tiny


@pytest.fixture
def collector_state():
    """Restore the collector whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _collector_enabled(_item):
    return gc.isenabled()


@pytest.mark.usefixtures("collector_state")
class TestGcPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_state_after_exception(self, enabled):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                assert not gc.isenabled()
                raise RuntimeError("boom")
        assert gc.isenabled() is enabled

    def test_nested_pauses_restore_only_at_the_outermost_exit(self):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_decorated_function_keeps_its_name(self):
        assert classify.__name__ == "classify"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_classify_leaves_collector_as_found(self, enabled):
        gc.enable() if enabled else gc.disable()
        classify({}, {})
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_datasets_pauses_and_restores(self, enabled, monkeypatch):
        seen = []
        real_build = datasets._build

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_build(*args, **kwargs)

        monkeypatch.setattr(datasets, "_build", spy)
        gc.enable() if enabled else gc.disable()
        datasets.build_datasets(tiny(seed=3))
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_pool_worker_keeps_its_own_collector(self):
        gc.enable()
        with gc_paused(), ProcessPoolBackend(2, faults=None) as ex:
            assert ex.map(_collector_enabled, [0, 1]) == [True, True]
