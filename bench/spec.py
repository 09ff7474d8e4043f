"""What the benchmark's metrics mean, beyond what BENCHMARK.json holds.

`BENCHMARK.json` at the repository root is the one list of workloads and
metrics, with their units, directions and bounds; `run.py` reads it. This
file keeps only the prose it has no room for: what each end-to-end metric
means on the train workloads and on field-eval, and which end-to-end
metric each per-layer metric should move, on which workload.
"""

# name: (meaning on the train workloads, meaning on field-eval).
# Timings are process CPU time scaled by a calibration loop run beside the
# work; raw CPU and wall time are recorded beside them in the report file.
# Each value is the high median over the operations of one run
# (run.end_to_end says why); step times per step index first.
END_TO_END = {
    "setup_s": (
        "process start until the first epoch begins: imports, config, "
        "build_networks, the first draw_samples and the first loss-graph "
        "recording",
        "process start until the first field read: imports, config, "
        "checkpoint load, evaluation grid and adapters"),
    "command_s": (
        "the whole `train` call, including the artifacts written at the end",
        "the `evaluate` call on the default 64x64x50 grid"),
    "export_s": (
        "the end-of-train artifacts: probes.csv, flux.csv and the 32x32x5 "
        "field snapshot, from the return of Trainer.run to the end of `train`",
        "the `export-fields` call on the default 64x64x50 grid"),
    "step_p50_ms": (
        "median epoch; an epoch spans the first loss-graph replay to the "
        "return of AdamState.step, is scaled by the calibration loops run "
        "near it, and each epoch index counts once, with the high median of "
        "its time over the operations",
        "median time-slice read during `evaluate`, each slice taken the same "
        "way"),
    "step_p90_ms": (
        "90th-percentile epoch, taken the same way",
        "90th-percentile time-slice read, taken the same way"),
    "peak_rss_mb": (
        "peak resident memory of the workload process",
        "peak resident memory of the workload process"),
    "loss_final": (
        "fluid_total at the final parameters over fluid_total at the initial "
        "ones, at the last stage's momentum weight on one fixed collocation "
        "draw (checks.training_progress says why not the last history loss). "
        "Seeds spread it by 0.01-0.02 on flow-train but 0.09-0.12 on "
        "fsi-train, so on fsi-train it cannot see a loss ~20% worse; broken "
        "training is caught by the checks instead (checks.fluid_stages_descend, "
        "checks.parameters_moved)",
        "the relative velocity-magnitude error `evaluate` prints, for seeded "
        "untrained networks; fixed by the seed, so lower is not better here. "
        "The evaluate-error check recomputes it through FieldNetwork.evaluate "
        "and fails on any move beyond print precision"),
}

# name: (end-to-end metric(s) it should move, workload(s)).
# Timings are the median CPU time per call in the traced run; counts are
# exact. Layers a workload never calls (the training layers on field-eval,
# FieldNetwork.evaluate on the train workloads) are measured on a small
# probe run instead (see run.py); the printed table names the source.
SHOULD_MOVE = {
    "autodiff.replay_ms.fluid": ("step_p50_ms, step_p90_ms",
                                 "flow-train, fsi-train; not field-eval"),
    "autodiff.replay_ms.solid": ("step_p50_ms, step_p90_ms",
                                 "fsi-train; not field-eval"),
    "autodiff.backward_ms.u": ("step_p50_ms (mostly u epochs), step_p90_ms",
                               "flow-train, fsi-train"),
    "autodiff.backward_ms.p": ("step_p90_ms", "flow-train, fsi-train"),
    "autodiff.backward_ms.d": ("step_p50_ms, step_p90_ms", "fsi-train"),
    "autodiff.nodes.fluid": ("step_p50_ms, setup_s", "flow-train, fsi-train"),
    "autodiff.nodes.solid": ("step_p50_ms", "fsi-train"),
    "autodiff.nodes.field": ("command_s, export_s, step_p50_ms (one field slice)",
                             "field-eval"),
    "autodiff.record_mb.fluid": ("peak_rss_mb", "fsi-train"),
    "autodiff.record_mb.solid": ("peak_rss_mb", "fsi-train"),
    "autodiff.replay_nodes_per_ms": ("step_p50_ms",
                                     "flow-train (overhead regime) vs fsi-train"),
    "physics.build_s.fluid": ("setup_s, command_s", "flow-train, fsi-train"),
    "physics.build_s.solid": ("command_s", "fsi-train"),
    "physics.builds": ("setup_s, command_s", "flow-train, fsi-train"),
    "domain.sample_ms": ("setup_s (predicted negligible, about 2 ms)",
                         "flow-train, fsi-train"),
    "nets.evaluate_ms": ("command_s, export_s (plain numpy forward of u+p+d over "
                         "one grid slice: the floor for field reads)", "field-eval"),
    "nets.checkpoint_write_ms": ("command_s", "fsi-train"),
    "nets.checkpoint_bytes": ("command_s; setup_s", "fsi-train; field-eval"),
    "nets.checkpoint_load_ms": ("setup_s", "field-eval"),
    "optim.step_us.u": ("step_p50_ms (predicted under 0.1%, so no movement)",
                        "flow-train, fsi-train"),
    "optim.step_us.p": ("step_p50_ms (predicted no movement)", "flow-train, fsi-train"),
    "optim.step_us.d": ("step_p50_ms (predicted no movement)", "fsi-train"),
    "trainer.self_ms": ("step_p50_ms, command_s (epoch minus replay, backward "
                        "and step)", "flow-train, fsi-train"),
    "trainer.epochs.u": ("command_s", "flow-train, fsi-train"),
    "trainer.epochs.p": ("command_s", "flow-train, fsi-train"),
    "trainer.epochs.d": ("command_s", "fsi-train"),
    "trainer.history_write_ms": ("command_s", "flow-train, fsi-train"),
    "analysis.speed_field_ms": ("command_s, step_p50_ms (per slice)", "field-eval"),
    "analysis.export_s": ("export_s",
                          "field-eval; train workloads (end-of-train artifacts)"),
    "analysis.export_mb": ("export_s", "field-eval"),
    "analysis.probe_ms": ("export_s (train artifacts)", "field-eval; train workloads"),
    "analysis.outlet_flux_ms": ("export_s (train artifacts)", "flow-train, fsi-train"),
    "config.load_ms": ("setup_s", "all three"),
    "trace.overhead_pct": ("none: traced minus untraced CPU time of the same "
                           "operation", "all three"),
}
