#!/usr/bin/env python3
"""Train a surrogate on both scenarios and print the R-squared contrast.

On the heterogeneous platform the surrogate learns compute time well but the
contention-dominated transfer times poorly; on the homogeneous platform
(identical jobs, no usable features) compute R-squared collapses.  This script
runs acceptance criterion 6's experiment (`cli.run_experiment` on
`cli.simulate_suite`) for a list of seeds and prints one table per seed, plus
the simulator/surrogate speedup at a large job count, timed as
`simsurrogate bench` times it.

Usage:
    python scripts/compare_scenarios.py --seeds 0,1,2 --epochs 30
"""

import click

from simsurrogate.cli import ExperimentManifest, run_experiment, simulate_suite, time_speedup
from simsurrogate.platform import builtin_platform
from simsurrogate.workload import generate_workload

# Timed calls per side of the speedup line, after one warm-up call each.
SPEEDUP_REPEATS = 3


@click.command()
@click.option("--seeds", default="0,1,2")
@click.option("--epochs", default=30, type=int)
@click.option("--hidden", default=24, type=int)
@click.option("--window", default=16, type=int)
@click.option("--speedup-jobs", default=10_000, type=int)
def run(seeds, epochs, hidden, window, speedup_jobs):
    seed_list = [int(s) for s in seeds.split(",")]
    hom_epochs = max(1, epochs - 5)
    het_fields = dict(scenario="heterogeneous", sims_per_batch=200, job_counts=[100],
                      hidden_size=hidden, window_size=window, max_epochs=epochs, patience=epochs)
    hom_fields = dict(scenario="homogeneous", hidden_size=hidden, window_size=window,
                      max_epochs=hom_epochs, patience=hom_epochs)
    # the homogeneous workloads do not depend on the seed: one suite serves all
    hom_suite = simulate_suite(ExperimentManifest(**hom_fields))
    models = []
    for seed in seed_list:
        het_man = ExperimentManifest(**het_fields, seed=seed)
        het, ckpt = run_experiment(het_man, *simulate_suite(het_man))
        hom, _ = run_experiment(ExperimentManifest(**hom_fields, seed=seed), *hom_suite)
        models.append(ckpt)
        click.echo(f"\nseed {seed}")
        click.echo(f"  {'observable':32s} {'heterogeneous':>14s} {'homogeneous':>12s}")
        for name in het.r2:
            click.echo(f"  {name:32s} {het.r2[name]:14.4f} {hom.r2[name]:12.4f}")

    jobs, datasets = generate_workload("heterogeneous", speedup_jobs, 0, seed_list[0])
    row = time_speedup(builtin_platform("heterogeneous"), "heterogeneous", jobs, datasets,
                       models[0], SPEEDUP_REPEATS)
    click.echo(f"\nspeedup at {speedup_jobs} jobs: simulator {row['simulator_seconds']:.2f}s, "
               f"surrogate {row['surrogate_seconds']:.3f}s, ratio {row['speedup']:.1f}x")


if __name__ == "__main__":
    run()
