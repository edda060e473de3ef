"""The benchmark's inputs are a function of its seed.

Two builds at one seed give the same frame pool, reference decisions and
arrival schedule; another seed changes all three.  Uses ``mixed_open``,
the workload with both frame kinds and a Poisson schedule::

    PYTHONPATH=src python -m pytest benchmarks/serving/test_determinism.py -q
"""

import bench
from repro.server import decisions_checksum


def _fingerprint(seed: int) -> dict:
    workload = bench.WORKLOADS["mixed_open"]
    inputs = bench.prepare(workload, seed, window_s=2.0)
    _, decisions, _, disagreements = bench.reference_pass(workload, inputs)
    assert not disagreements
    return {**inputs.digest(), "reference": decisions_checksum(decisions)}


def test_same_seed_same_inputs_other_seed_other_inputs():
    bench.use_out_dir()
    first, again, other = _fingerprint(7), _fingerprint(7), _fingerprint(8)
    assert first == again
    assert all(first[key] != other[key] for key in first)
