#!/usr/bin/env python3
"""Train a surrogate on both scenarios and print the R-squared contrast.

On the heterogeneous platform the surrogate learns compute time well but the
contention-dominated transfer times poorly; on the homogeneous platform
(identical jobs, no usable features) compute R-squared collapses.  This script
reproduces that contrast for a list of seeds and prints one table per seed,
plus the simulator/surrogate speedup at a large job count, both sides timed as
`simsurrogate bench` times them.

Usage:
    python scripts/compare_scenarios.py --seeds 0,1,2 --epochs 30
"""

import click

from simsurrogate.engine import run_simulation
from simsurrogate.evaluate import evaluate_model, predict_rows, time_call
from simsurrogate.nn.models import ModelConfig
from simsurrogate.platform import builtin_platform
from simsurrogate.preprocess import (
    fit_standardizer,
    make_windows,
    split_train_eval,
    standardize_table,
)
from simsurrogate.traceio import SampleTable, feature_names, join_traces, workload_rows
from simsurrogate.train import TrainConfig, train_model
from simsurrogate.workload import TRAIN_JOB_COUNTS, generate_workload

# Timed calls per side of the speedup line, after one warm-up call each.
SPEEDUP_REPEATS = 3


def simulate_table(scenario, platform, n_jobs, sim_id, seed):
    jobs, datasets = generate_workload(scenario, n_jobs, sim_id, seed)
    traces = run_simulation(platform, jobs, datasets)
    return join_traces(scenario, workload_rows(jobs, datasets), traces)


def experiment(scenario, tables, lengths, seed, epochs, hidden, window):
    split = split_train_eval(lengths, 0.7, seed)
    train_t = SampleTable.concat([tables[i] for i in split.train_ids])
    eval_t = SampleTable.concat([tables[i] for i in split.eval_ids])
    f_std = fit_standardizer(train_t.features, names=train_t.feature_names)
    t_std = fit_standardizer(train_t.targets, names=train_t.target_names)
    config = ModelConfig("bigru", input_dim=len(feature_names(scenario)),
                         output_dim=5, hidden_size=hidden, window_size=window,
                         batch_size=32, seed=seed)
    params, _ = train_model(
        TrainConfig(model=config, learning_rate=1e-3, max_epochs=epochs,
                    patience=epochs, seed=seed),
        make_windows(standardize_table(train_t, f_std, t_std), window, 0),
        make_windows(standardize_table(eval_t, f_std, t_std), window, 0))
    report = evaluate_model(config, params, eval_t, f_std, t_std, seed=seed)
    return report, config, params, f_std, t_std


@click.command()
@click.option("--seeds", default="0,1,2")
@click.option("--epochs", default=30, type=int)
@click.option("--hidden", default=24, type=int)
@click.option("--window", default=16, type=int)
@click.option("--speedup-jobs", default=10_000, type=int)
def run(seeds, epochs, hidden, window, speedup_jobs):
    seed_list = [int(s) for s in seeds.split(",")]

    het_platform = builtin_platform("heterogeneous")
    hom_platform = builtin_platform("homogeneous")
    hom_tables, hom_lengths = {}, {}
    sid = 0
    for n in TRAIN_JOB_COUNTS:
        for _ in range(20):
            hom_tables[sid] = simulate_table("homogeneous", hom_platform, n, sid, 0)
            hom_lengths[sid] = n
            sid += 1

    speedup_model = None
    for seed in seed_list:
        het_tables = {s: simulate_table("heterogeneous", het_platform, 100, s, seed)
                      for s in range(200)}
        het, *model = experiment("heterogeneous", het_tables,
                                 {s: 100 for s in het_tables}, seed, epochs,
                                 hidden, window)
        hom, *_ = experiment("homogeneous", hom_tables, hom_lengths, seed,
                             max(1, epochs - 5), hidden, window)
        if speedup_model is None:
            speedup_model = model
        click.echo(f"\nseed {seed}")
        click.echo(f"  {'observable':32s} {'heterogeneous':>14s} {'homogeneous':>12s}")
        for name in het.r2:
            click.echo(f"  {name:32s} {het.r2[name]:14.4f} {hom.r2[name]:12.4f}")

    config, params, f_std, t_std = speedup_model
    jobs, datasets = generate_workload("heterogeneous", speedup_jobs, 0, seed_list[0])
    traces, sim_s = time_call(lambda: run_simulation(het_platform, jobs, datasets),
                              SPEEDUP_REPEATS)
    table = join_traces("heterogeneous", workload_rows(jobs, datasets), traces)
    _, sur_s = time_call(lambda: predict_rows(config, params, table, f_std, t_std),
                         SPEEDUP_REPEATS)
    click.echo(f"\nspeedup at {speedup_jobs} jobs: simulator {sim_s:.2f}s, "
               f"surrogate {sur_s:.3f}s, ratio {sim_s / sur_s:.1f}x")


if __name__ == "__main__":
    run()
