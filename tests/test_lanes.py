"""The worker protocol every stage that uses a second core goes through."""

import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import csiwatch
from csiwatch import csi_sim, harness
from csiwatch._lanes import split_in_two
from csiwatch.config import PipelineConfig
from csiwatch.signal_model import SceneGeometry


def fail(message):
    raise FloatingPointError(message)


class TestSplitInTwo:
    def test_returns_both_results_second_from_the_named_worker(self):
        before = threading.active_count()
        caller = threading.current_thread().name
        got = split_in_two(lambda: ("first", threading.current_thread().name),
                           lambda: ("second", threading.current_thread().name), "csiwatch-test")
        assert got == (("first", caller), ("second", "csiwatch-test_0"))
        assert threading.active_count() == before

    def test_worker_error_raised_in_caller(self):
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^worker failed$"):
            split_in_two(lambda: 1, lambda: fail("worker failed"), "csiwatch-test")
        assert threading.active_count() == before

    def test_caller_error_wins_when_both_fail(self):
        # the caller fails only once the worker has failed
        worker_failed = threading.Event()

        def second():
            worker_failed.set()
            fail("worker failed")

        def first():
            assert worker_failed.wait(timeout=60)
            fail("caller failed")

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="^caller failed$"):
            split_in_two(first, second, "csiwatch-test")
        assert threading.active_count() == before


def test_import_loads_no_concurrent_futures():
    # in a fresh interpreter: a lane imports its pool when it starts
    src = str(Path(csiwatch.__file__).resolve().parents[1])
    code = "import sys, csiwatch; print([m for m in sys.modules if m.startswith('concurrent')])"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def wrap_public_functions(monkeypatch, calls):
    """Wrap every function that a csiwatch module names in __all__, under
    each of its names in every csiwatch module, as perfbench's tracer does;
    each call appends (function name, thread name) to calls."""
    package = importlib.import_module("csiwatch")
    modules = [package] + [importlib.import_module(f"csiwatch.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    wrappers = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn not in wrappers:
                wrappers[fn] = record(fn, calls)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])
    return wrappers


def record(fn, calls):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append((fn.__qualname__, threading.current_thread().name))
        return fn(*args, **kwargs)

    return wrapper


class TestWorkersRunPrivateCode:
    def test_every_public_call_runs_on_the_caller(self, monkeypatch):
        # a 25-minute 3x3 night with noise starts every lane: the noise,
        # derive and Hampel workers
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        calls = []
        wrappers = wrap_public_functions(monkeypatch, calls)
        assert {"resample_uniform", "derive_streams", "hampel_filter",
                "generate_trace"} <= {fn.__name__ for fn in wrappers}
        monkeypatch.setattr(threading, "Thread", Recording)
        scenario = csi_sim.build_night_scenario(1500.0, 1, 2, seed=3)
        noise = csi_sim.NoiseSpec(awgn_sigma=0.02, outlier_rate_per_s=0.02,
                                  outlier_magnitude=8.0, jitter_std_s=0.0005)
        trace = csi_sim.generate_trace(scenario, SceneGeometry(), noise, seed=3,
                                       n_rx=3, n_sc=3, dtype=np.complex64)
        harness.run_pipeline(trace, PipelineConfig())
        assert set(started) == {"csiwatch-noise_0", "csiwatch-derive_0", "csiwatch-hampel_0"}
        names = {name for name, _ in calls}
        assert {"generate_trace", "run_pipeline", "derive_streams", "hampel_filter",
                "pca_first_component", "sliding_out_of_band_energy"} <= names
        caller = threading.current_thread().name
        assert [(name, thread) for name, thread in calls if thread != caller] == []
