#!/usr/bin/env python3
"""Train a surrogate on both scenarios and print the R-squared contrast.

On the heterogeneous platform the surrogate learns compute time well but the
contention-dominated transfer times poorly; on the homogeneous platform
(identical jobs, no usable features) compute R-squared collapses.  This script
runs acceptance criterion 6's experiment (`cli.run_experiment` on
`cli.simulate_suite`) for a list of seeds and prints one table per seed, plus
the simulator/surrogate speedup at a large job count, timed as
`simsurrogate bench` times it.

It runs criterion 6's manifests, `manifests/criterion6_<scenario>.json`;
`--epochs` (max_epochs and patience), `--hidden` and `--window` override both.

Usage:
    python scripts/compare_scenarios.py --seeds 0,1,2 --epochs 30
"""

from pathlib import Path

import click

from simsurrogate.cli import resolve_manifest, run_experiment, simulate_suite, time_speedup
from simsurrogate.platform import builtin_platform
from simsurrogate.workload import generate_workload

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
# Timed calls per side of the speedup line, after one warm-up call each.
SPEEDUP_REPEATS = 3


@click.command()
@click.option("--seeds", default="0,1,2")
@click.option("--epochs", type=int, help="Override max_epochs and patience.")
@click.option("--hidden", type=int, help="Override hidden_size.")
@click.option("--window", type=int, help="Override window_size.")
@click.option("--speedup-jobs", default=10_000, type=int)
def run(seeds, epochs, hidden, window, speedup_jobs):
    seed_list = [int(s) for s in seeds.split(",")]

    def manifest(scenario, seed=0):
        return resolve_manifest(str(MANIFESTS / f"criterion6_{scenario}.json"), seed=seed,
                                max_epochs=epochs, patience=epochs, hidden_size=hidden,
                                window_size=window)

    # the homogeneous workloads do not depend on the seed: one suite serves all
    hom_suite = simulate_suite(manifest("homogeneous"))
    models = []
    for seed in seed_list:
        het_man = manifest("heterogeneous", seed)
        het, ckpt = run_experiment(het_man, *simulate_suite(het_man))
        hom, _ = run_experiment(manifest("homogeneous", seed), *hom_suite)
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
