"""Detecting a mode-collapsed sampler on the binary Gaussian mixture (Fig. 5c).

The binary GMM has a symmetric, bimodal posterior over the mean ``μ``.  An
HMC chain started in one mode rarely crosses to the other, so its histogram
puts (almost) all mass on one side — which the guaranteed bounds expose: the
empirical frequency of the missed mode falls below the guaranteed lower bound.

Run with::

    python examples/gmm_validation.py
"""

from __future__ import annotations

import numpy as np

from repro import AnalysisOptions, Model
from repro.inference import hmc
from repro.models import binary_gmm_log_density, binary_gmm_program


def main() -> None:
    rng = np.random.default_rng(7)
    model = Model(
        binary_gmm_program(observation=1.0),
        AnalysisOptions(splits_per_dimension=160, analyzers=("box",)),
    )

    print("=== guaranteed bounds on the posterior of mu ===")
    histogram = model.histogram(-3.0, 3.0, bucket_count=12)
    for line in histogram.summary_lines():
        print(line)
    print()

    print("=== importance sampling (unbiased, multi-modal) ===")
    is_result = model.sample(20_000, method="importance", rng=rng)
    is_samples = is_result.resample(10_000, rng)
    is_report = histogram.validate_samples(is_samples, tolerance=0.02)
    print(f"IS histogram consistent with the bounds: {is_report.consistent}")
    print()

    print("=== HMC started in the positive mode ===")
    # Density-level HMC (not the program-level "hmc" sampler): the broken
    # chain is deliberately initialised inside one mode of the known density.
    result = hmc(
        lambda x: binary_gmm_log_density(float(x[0]), observation=1.0),
        initial=[1.0],
        num_samples=2_000,
        rng=rng,
        step_size=0.05,
        leapfrog_steps=10,
    )
    hmc_samples = result.first_coordinate()
    negative_share = float(np.mean(hmc_samples < 0.0))
    print(f"fraction of HMC samples in the negative mode: {negative_share:.3f} (should be ~0.5)")
    hmc_report = histogram.validate_samples(hmc_samples, tolerance=0.02)
    print(f"HMC histogram consistent with the bounds: {hmc_report.consistent}")
    for detail in hmc_report.details[:4]:
        print("  violation:", detail)


if __name__ == "__main__":
    main()
