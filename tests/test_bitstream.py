"""Golden SHA-256 prefixes of the noisy numerics and of the link model's sweeps.

The noisy values depend on the BLAS library's summation order (OpenBLAS on
x86-64 here), so another BLAS build may move them without any program change.
The sweep CSVs are plain float arithmetic and do not. A change that moves
any of them on purpose updates the golden values in the same diff and records
the old and new values in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from anamac.chip import noise_table
from anamac.cli import main
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


def test_noise_table_bytes():
    """The temporal-noise levels come from Python's inv_cdf and the C library's
    log and sqrt, not from BLAS or numpy's SIMD code. If another platform moves a
    level, this test names the table rather than every noisy golden below it."""
    assert _sha(noise_table()) == "1cfbba1e07e34386"


def _matmul_operands():
    rng = np.random.default_rng(0)
    x = rng.random((16, 700), dtype=np.float32)
    w = rng.standard_normal((700, 300), dtype=np.float32)
    return x, w


@pytest.mark.parametrize("mode", ["simulated_time", "measured_time"])
def test_quantized_matmul_bitstream(mode):
    x, w = _matmul_operands()
    y, trace = quantized_matmul(x, w, SimulatedChips(2), mode=mode)
    assert _sha(y) == "b5fd21a993066695", BLAS_NOTE
    if mode == "simulated_time":
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest()[:16] == "4ee6f116dad00517"


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
    assert _har_logits(backend="chip", resources=SimulatedChips(1)) == "3396bc1654fe3a04", BLAS_NOTE
    assert _har_logits(backend="software") == "d11d015cff01fa0f", BLAS_NOTE
    noisy = _har_logits(backend="software", noise_lsb=2, rng=np.random.default_rng(9))
    assert noisy == "d4228eb1f87b0fcc", BLAS_NOTE


# `anamac bench` with the default --values: (size CSV, batch CSV, --utilization CSV)
SWEEP_GOLDENS = {
    "v1_1gbe": ("1cd7d1365d0715d3", "3d0ff95be58b499e", "a063ef7172e229af"),
    "v2_1gbe": ("f339ad15e0651df2", "3df8f569dca61edf", "cc1c388f542cdd63"),
    "sim_8g": ("74934f9e717494a2", "1d68a34fff126308", "fb669000006c2cb9"),
}


@pytest.mark.parametrize("scenario", sorted(SWEEP_GOLDENS))
def test_bench_sweep_bytes(scenario, tmp_path):
    for sweep, extra in (("size", ["--utilization", str(tmp_path / "util.csv")]), ("batch", [])):
        out = ["--out", str(tmp_path / f"{sweep}.csv")]
        result = CliRunner().invoke(main, ["bench", "--scenario", scenario, "--sweep", sweep, *out, *extra])
        assert result.exit_code == 0, result.output
    files = ("size.csv", "batch.csv", "util.csv")
    digests = tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()[:16] for n in files)
    assert digests == SWEEP_GOLDENS[scenario]
