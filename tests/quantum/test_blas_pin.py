"""The engine's one-thread OpenBLAS pin.

``execute``, ``adjoint_gradients`` and ``expvals`` pin the calling
thread's OpenBLAS to one thread while they run.  The caller's count must
come back afterwards, also when the call raises, and the pin must not
change a single result bit.
"""

import ctypes
import dataclasses

import numpy as np
import pytest

import repro.quantum.engine as engine_mod
from repro.exceptions import ShapeError
from repro.quantum.circuit import GATE_SET
from repro.quantum.engine import CompiledTape
from repro.quantum.templates import (
    angle_embedding,
    random_sel_weights,
    strongly_entangling_layers,
)


def _getter():
    """OpenBLAS's thread-count getter (the scipy-openblas build prefixes
    and suffixes its public names), or ``None``."""
    lib = engine_mod._openblas()
    for name in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn
    return None


GET = _getter()
PIN = engine_mod._thread_pin()

needs_pin = pytest.mark.skipif(
    GET is None or PIN is None,
    reason="NumPy's OpenBLAS or its thread-count functions not found",
)


@pytest.fixture
def two_threads():
    """Run the test with the calling thread at two OpenBLAS threads, so
    a pin left at one would show."""
    previous = PIN(2)
    try:
        yield GET()
    finally:
        PIN(previous)


def _sel_engine(n_q=3, n_layers=2, seed=0):
    rng = np.random.default_rng(seed)
    w = random_sel_weights(n_layers, n_q, rng)
    ops = angle_embedding(np.zeros((1, n_q)), n_q)
    ops += strongly_entangling_layers(w, n_q)
    return CompiledTape(ops, n_q), w.size, rng


@needs_pin
class TestPinRestores:
    def test_entry_points_restore_the_callers_count(self, two_threads):
        engine, n_w, rng = _sel_engine()
        runs, batch = 2, 4
        x = rng.normal(size=(runs * batch, 3))
        state = engine.execute(
            inputs=x, weights=rng.normal(size=(runs, n_w)), runs=runs,
            record=True,
        )
        assert GET() == two_threads
        engine.expvals(state, runs=runs)
        assert GET() == two_threads
        engine.adjoint_gradients(rng.normal(size=x.shape), 3, n_w)
        assert GET() == two_threads

    def test_restores_after_shape_error(self, two_threads):
        engine, n_w, rng = _sel_engine()
        with pytest.raises(ShapeError):
            engine.execute(inputs=rng.normal(size=(4, 1)))
        assert GET() == two_threads
        with pytest.raises(ShapeError):
            engine.adjoint_gradients(np.ones((4, 3)), 3, n_w)
        assert GET() == two_threads
        with pytest.raises(ShapeError):
            engine.expvals()
        assert GET() == two_threads

    def test_engine_builds_run_at_one_thread(self, two_threads, monkeypatch):
        """The pin is in force inside ``execute``: the gate builder it
        calls sees one OpenBLAS thread."""
        seen = []
        info = GATE_SET["Rot"]

        def spy(*args, **kwargs):
            seen.append(GET())
            return info.matrix_fn(*args, **kwargs)

        monkeypatch.setitem(
            GATE_SET, "Rot", dataclasses.replace(info, matrix_fn=spy)
        )
        engine, n_w, rng = _sel_engine()
        engine.execute(
            inputs=rng.normal(size=(4, 3)), weights=rng.normal(size=n_w)
        )
        assert seen == [1]
        assert GET() == two_threads


class TestPinLeavesBitsAlone:
    @pytest.mark.parametrize("n_q", [3, 5])
    def test_unpinned_run_is_bit_identical(self, n_q, monkeypatch):
        """With the lookup forced to find nothing, an evaluation-sized
        stacked execute and a recorded step give the pinned bits."""

        def results():
            engine, n_w, rng = _sel_engine(n_q, 3, seed=n_q)
            runs, rows = 3, 1200
            weights = rng.normal(size=(runs, n_w))
            x = rng.normal(size=(runs * rows, n_q))
            state = engine.execute(
                inputs=x, weights=weights, runs=runs, record=True,
                depths=np.array([3, 1, 2]),
            ).copy()
            ev = engine.expvals(state, runs=runs)
            ig, wg = engine.adjoint_gradients(
                rng.normal(size=x.shape), n_q, n_w
            )
            return state, ev, ig, wg

        pinned = results()
        monkeypatch.setattr(engine_mod, "_thread_pin", lambda: None)
        unpinned = results()
        for a, b in zip(pinned, unpinned):
            assert np.array_equal(a, b)
