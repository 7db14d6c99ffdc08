"""Golden SHA-256 prefixes of the noisy numerics.

The noisy values depend on the BLAS library's summation order (OpenBLAS on
x86-64 here), so another BLAS build may move them without any program change.
A change that moves them on purpose updates the golden values in the same
diff and records the old and new values in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from anamac.executor import SimulatedChips
from anamac.train import ForwardContext, cross_entropy_grad, har_model, quantized_matmul

BLAS_NOTE = (
    "noisy outputs depend on the BLAS summation order (OpenBLAS, x86-64); "
    "an intentional change updates this golden value and records it in CHANGES.md"
)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _matmul_operands():
    rng = np.random.default_rng(0)
    x = rng.random((16, 700), dtype=np.float32)
    w = rng.standard_normal((700, 300), dtype=np.float32)
    return x, w


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_quantized_matmul_bitstream(mode):
    x, w = _matmul_operands()
    y, trace = quantized_matmul(x, w, SimulatedChips(2), mode=mode)
    assert _sha(y) == "d8f25b6e78ec6478", BLAS_NOTE
    if mode == "simulated_time":
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest()[:16] == "9f6a73a4d98b309a"


def _har_logits(**ctx_kwargs):
    model = har_model(np.random.default_rng(3))
    x = np.random.default_rng(5).standard_normal((32, 9, 128)).astype(np.float32)
    labels = np.random.default_rng(6).integers(0, 6, size=32)
    logits = []
    for salt in (1, 2, 3):
        out = model.forward(x, ForwardContext(seed_salt=salt, **ctx_kwargs))
        model.backward(cross_entropy_grad(out, labels))
        model.step(0.05)
        logits.append(out)
    return _sha(*logits)


def test_har_steps_bitstream():
    assert _har_logits(backend="chip", resources=SimulatedChips(1)) == "289f575a65eda831", BLAS_NOTE
    assert _har_logits(backend="software") == "6ebe3fb3d3f2d594", BLAS_NOTE
    noisy = _har_logits(backend="software", noise_lsb=2, rng=np.random.default_rng(9))
    assert noisy == "a1bad51c4cd4b28a", BLAS_NOTE
