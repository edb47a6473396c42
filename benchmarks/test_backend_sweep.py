"""NumPy-vs-torch wall clock on the fused stacked sweeps.

One compiled SEL engine executes a candidate-stacked batch (5 stacked
run slices x minibatch 8 statevectors) at 4 and 5 qubits (5 is the
widest register the engine compiles) — the exact shape
:func:`repro.runtime.jobs.execute_candidates` drives — once per array
backend.  ``forward`` times the state sweep alone; ``step`` times
a recorded forward plus the adjoint gradient sweep, i.e. one training
step's quantum cost.

Backend names are baked into the benchmark ids (``...[numpy-4q]``,
``...[torch-5q]``), so snapshots compare a backend only against itself
— a torch timing can never masquerade as a numpy regression (each
entry also records its backend in the snapshot metadata; see
``run_benchmarks.condense``).

The torch variants skip cleanly when torch is not importable, so the
committed snapshots on a numpy-only machine simply lack the torch rows.
"""

import numpy as np
import pytest

from repro.backends import BackendUnavailable, get_backend
from repro.quantum import (
    CompiledTape,
    angle_embedding,
    random_sel_weights,
    strongly_entangling_layers,
)

#: Stacked slices per sweep (candidates x runs of the fused path) and
#: the per-slice minibatch — reduced-profile-like shapes.
STACK = 5
MINIBATCH = 8
DEPTH = 2


def _backend_params():
    params = [pytest.param("numpy", id="numpy")]
    try:
        get_backend("torch")
        marks = ()
    except BackendUnavailable as exc:
        marks = (pytest.mark.skip(reason=str(exc)),)
    params.append(pytest.param("torch", id="torch", marks=marks))
    return params


@pytest.fixture(params=_backend_params())
def backend_name(request):
    return request.param


def _fused_case(n_qubits: int, backend_name: str):
    """A compiled SEL engine plus its stacked inputs on one backend.

    The case RNG is keyed on ``n_qubits`` alone so every backend (and
    the differential's reference) sees identical data.
    """
    rng = np.random.default_rng((11, n_qubits))
    batch = STACK * MINIBATCH
    x = rng.uniform(-1, 1, (batch, n_qubits))
    w = random_sel_weights(DEPTH, n_qubits, rng)
    tape = angle_embedding(x, n_qubits) + strongly_entangling_layers(
        w, n_qubits
    )
    engine = CompiledTape(tape, n_qubits, backend=get_backend(backend_name))
    grad = rng.standard_normal((batch, n_qubits))
    return engine, x, w.ravel(), grad, w.size


class TestBackendSweep:
    @pytest.mark.parametrize("n_qubits", [4, 5], ids=["4q", "5q"])
    def test_fused_forward(self, benchmark, backend_name, n_qubits):
        engine, x, flat, _, _ = _fused_case(n_qubits, backend_name)
        benchmark.extra_info["backend"] = backend_name
        xp = engine.backend

        def forward():
            engine.execute(x, flat)
            xp.synchronize()

        benchmark(forward)

    @pytest.mark.parametrize("n_qubits", [4, 5], ids=["4q", "5q"])
    def test_fused_forward_adjoint(self, benchmark, backend_name, n_qubits):
        engine, x, flat, grad, n_weights = _fused_case(n_qubits, backend_name)
        benchmark.extra_info["backend"] = backend_name
        xp = engine.backend

        def step():
            engine.execute(x, flat, record=True)
            out = engine.adjoint_gradients(grad, x.shape[1], n_weights)
            xp.synchronize()
            return out

        benchmark(step)

    def test_backends_agree(self, backend_name):
        """Tolerance differential: every backend matches the NumPy
        reference on the fused forward (not timed; keeps the benchmark
        pairs honest — both backends run the same workload)."""
        engine, x, flat, _, _ = _fused_case(4, backend_name)
        reference, _, _, _, _ = _fused_case(4, "numpy")
        got = engine.backend.to_numpy(engine.execute(x, flat))
        want = reference.execute(x, flat)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
