"""vesselflow benchmark: end-to-end metrics, or the traced per-layer table.

    python3 bench/run.py --workload fsi-train --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --self-test

Run from the repository root. Each operation is a process of its own
(bench/op.py) with PYTHONPATH=src and one BLAS thread; set-up (scenario
files, the field-eval checkpoint) is made from --seed. With --trace 0,
operations repeat on identical inputs until --seconds have passed (at
least MIN_OPS) and every end-to-end metric is the high median over them
of CPU times scaled by a calibration loop (see end_to_end). With
--trace 1, one untraced and one traced operation run, then a probe run on
small inputs for layers the workload itself never calls, then the
record-size table. The last line of stdout is the JSON result; the full
report, with the machine stamp and every span, goes to .bench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
MIN_OPS = 2
TIME_LIMIT_S = 170  # the harness must exit within 180 s
BLAS_THREADS = "1"
CHECKPOINT_INTERVAL = {"fsi-train": 5}
# ROADMAP baseline (wall time, depth-12 cylinder, n = 1000).
BASELINE = {"fluid epoch": 0.47, "solid epoch": 0.35, "evaluate": 5.7}


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# inputs and operations

def scenario(workload) -> Path:
    return BENCH / "scenarios" / f"{workload}.json"


def write_checkpoint(config_path, seed, path) -> None:
    """Seeded, untrained networks of the scenario's architecture."""
    sys.path.insert(0, str(SRC))
    from vesselflow import nets
    from vesselflow.config import load_config
    from vesselflow.trainer import build_networks

    nets.save_networks(path, build_networks(load_config(config_path), seed))


def probe_config(path) -> Path:
    """The fsi-train scenario shrunk so that every layer runs once, quickly."""
    data = json.loads(scenario("fsi-train").read_text())
    data["training"].update(interior_points=128, wall_points=128, port_points=128,
                            fluid_epochs=2, velocity_epochs=1, pressure_epochs=1,
                            ladder_steps=1, max_alternations=1, solid_epochs=2)
    path.write_text(json.dumps(data))
    return path


class Runner:
    """Runs bench/op.py processes one after another within a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def op(self, mode, *, trace=False, check=False, inject=None, **opts) -> dict:
        self.count += 1
        out_dir = self.work / f"op{self.count:02d}-{mode}"
        out_dir.mkdir(parents=True)
        result_path = out_dir / "result.json"
        argv = [sys.executable, str(BENCH / "op.py"), mode, "--result", str(result_path),
                "--out-dir", str(out_dir)]
        for key, value in opts.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag, *map(str, value)] if isinstance(value, tuple) else [flag, str(value)]
        argv += ["--trace"] * trace + ["--check"] * check
        argv += ["--inject", inject] if inject else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
        timeout = self.deadline - time.monotonic()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(argv, 0)
            proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} operation did not finish within the time limit",
                    "out_dir": str(out_dir)}
        if result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"error": f"{mode} operation exited with {proc.returncode}: "
                               f"{proc.stdout[-2000:]}"}
        result["out_dir"] = str(out_dir)
        return result


# ----------------------------------------------------------------------
# bookkeeping

class Tally:
    """Operations attempted and failed: each workload operation and each
    output check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label, result) -> bool:
        self.attempted += 1
        if result.get("error"):
            reason = result["error"].strip().splitlines()[-1]
            print(f"op    FAIL {label}: {reason}")
            self.failures.append(f"{label}: {reason}")
            return False
        for name, (ok, detail) in result.get("checks", {}).items():
            self.check(f"{label} {name}", ok, detail)
        return True

    def check(self, label, ok, detail) -> None:
        self.attempted += 1
        print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def file_checks(tally, label, workload, result, reference=None) -> None:
    """Checks on the files an operation wrote; `reference` is an earlier
    operation on the same inputs whose files must match byte for byte."""
    import checks

    out = Path(result["out_dir"])
    if workload == "field-eval":
        tally.check(f"{label} export rows", *checks.data_rows(
            out / "fields.csv", result["cells"] * result["times"]))
        names = ("fields.csv", "probes.csv")
    else:
        tally.check(f"{label} history", *checks.history_finite(out / "history.csv"))
        tally.check(f"{label} fluid stages", *checks.fluid_stages_descend(
            out / "history.csv"))
        names = ("history.csv",)
    if reference is not None:
        if workload == "field-eval":
            same = result["evaluate_error"] == reference["evaluate_error"]
            tally.check(f"{label} evaluate error vs {reference['label']}", same,
                        f"{result['evaluate_error']!r}, {reference['evaluate_error']!r}")
        for name in names:
            tally.check(f"{label} {name} vs {reference['label']}",
                        *checks.same_bytes(Path(reference["out_dir"]) / name, out / name))


def end_to_end(workload, results) -> dict:
    """Each timing is CPU time scaled by the calibration loop that ran
    beside it (spans.REFERENCE_MS), then the high median over the
    operations (with two, the slower one).

    The host flips between a fast mode and a ~1.6x slower one, from a
    fraction of a second to minutes at a time; over ten seeds raw CPU
    times spread up to 0.40 (baseline/05b3215-set-D.json, export_s). The
    loop slows with the work it runs beside: over 40 s of fluid replays,
    2-s means of the raw times ranged 0.86-1.48 of their median, and of
    the scaled ones 0.94-1.08 (calibration_check.py repeats this).

    Step times go step by step: each epoch (or slice) is scaled by the
    loops run near it (op._timings), each step index gets the high median
    over the operations, and step_p50_ms and step_p90_ms are quantiles
    over the indices."""
    def high(values):
        return statistics.median_high(list(values))

    def scaled(r, name):
        return r[f"{name}_cpu"] * spans.REFERENCE_MS / r[f"{name}_calibration_ms"]

    def per_step(key, scale=False):
        per_op = [[t * (spans.REFERENCE_MS / c if scale else 1.0)
                   for t, c in zip(r[key], r["step_calibration_ms"])] for r in results]
        return [high(times) for times in zip(*per_op)]

    steps = per_step("step_cpu_ms", scale=True)
    values = {
        "setup_s": high(scaled(r, "setup") for r in results),
        "command_s": high(scaled(r, "command") for r in results),
        "export_s": high(scaled(r, "export") for r in results),
        "step_p50_ms": quantile(steps, 0.5),
        "step_p90_ms": quantile(steps, 0.9),
        "peak_rss_mb": high(r["peak_rss_mib"] for r in results),
        "loss_final": results[0]["evaluate_error" if workload == "field-eval"
                                 else "progress"],
    }
    raw, walls = per_step("step_cpu_ms"), per_step("step_wall_ms")
    print(f"{len(results)} operations, {len(steps)} steps each "
          f"({'epochs' if workload != 'field-eval' else 'evaluate slices'}); calibration loop "
          f"{statistics.mean(r['command_calibration_ms'] for r in results):.2f} ms "
          f"(reference {spans.REFERENCE_MS} ms)")
    for label, key, step_times in (("CPU", "cpu", raw), ("wall", "wall", walls)):
        print(f"unscaled {label}: setup {high(r[f'setup_{key}'] for r in results):.3f} s, "
              f"command {high(r[f'command_{key}'] for r in results):.3f} s, "
              f"export {high(r[f'export_{key}'] for r in results):.3f} s, "
              f"step p50 {quantile(step_times, 0.5):.2f} ms, "
              f"p90 {quantile(step_times, 0.9):.2f} ms")
    return values


# ----------------------------------------------------------------------
# the two kinds of run

def run_end_to_end(runner, tally, workload, inputs, seconds) -> tuple[dict, list]:
    stop = time.monotonic() + seconds
    results = []
    while len(results) < MIN_OPS or time.monotonic() < stop:
        label = f"op{len(results) + 1}"
        # Output checks run once, on the first operation that succeeds.
        checked = any(not r.get("error") for r in results)
        result = runner.op(**inputs, check=not checked)
        result["label"] = label
        if tally.op(label, result):
            file_checks(tally, label, workload, result, results[0] if results else None)
        results.append(result)
        if time.monotonic() > runner.deadline - 60:
            break
    good = [r for r in results if not r.get("error")]
    if not good:
        raise BenchError("every operation failed:\n" + "\n".join(tally.failures))
    return end_to_end(workload, good), results


def run_traced(runner, tally, workload, seed, inputs) -> tuple[dict, dict]:
    plain = runner.op(**inputs, check=True)
    plain["label"] = "untraced"
    traced = runner.op(**inputs, trace=True)
    traced["label"] = "traced"
    for result in (plain, traced):
        if not tally.op(result["label"], result):
            raise BenchError("\n".join(tally.failures))
    file_checks(tally, "untraced", workload, plain)
    file_checks(tally, "traced", workload, traced, reference=plain)

    # Layers this workload never calls are measured on small probe inputs.
    probe_scenario = probe_config(runner.work / "probe.json")
    probe_train = runner.op("train", config=probe_scenario, seed=seed, trace=True,
                            checkpoint_interval=2)
    probe_field = runner.op("field", config=probe_scenario, trace=True, grid=(16, 16, 4),
                            checkpoint=Path(probe_train["out_dir"]) / "checkpoints" / "final.npz")
    table = runner.op("table", seed=seed)
    for label, result in (("probe-train", probe_train), ("probe-field", probe_field),
                          ("table", table)):
        if not tally.op(label, result):
            raise BenchError("\n".join(tally.failures))

    names = [m["name"] for m in declaration()["per_layer"]]
    metrics, sources = {}, {}
    for name in names:
        for source, result in (("op", traced), ("probe-train", probe_train),
                               ("probe-field", probe_field)):
            value = result["layers"].get(name)
            if value is not None:
                metrics[name], sources[name] = value, source
                break
    metrics["trace.overhead_pct"] = 100.0 * (traced["command_cpu"] / plain["command_cpu"] - 1.0)
    sources["trace.overhead_pct"] = "op"
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"per-layer metrics with no measurement: {missing}")

    print("\nrecord sizes (cylinder, construction only)")
    print(f"{'graph':6} {'n':>5} {'depth':>5} {'nodes':>8} {'MiB':>8}")
    for row in table["table"]:
        print(f"{row['graph']:6} {row['n']:5d} {row['depth']:5d} {row['nodes']:8d} "
              f"{row['record_mib']:8.2f}")
    print(f"\n{'per-layer metric':30} {'value':>12} {'unit':8} {'source':11} should move / on")
    for entry in declaration()["per_layer"]:
        name = entry["name"]
        moves, on = spec.SHOULD_MOVE.get(name, ("?", "?"))
        print(f"{name:30} {metrics[name]:12.4f} {entry['unit']:8} {sources[name]:11} "
              f"{moves} / {on}")
    baseline_lines(workload, plain)
    report = {"untraced": plain, "traced": traced, "probe_train": probe_train,
              "probe_field": probe_field, "table": table["table"], "sources": sources}
    return metrics, report


def baseline_lines(workload, plain) -> None:
    print()
    if workload == "field-eval":
        print(f"evaluate: {plain['command_cpu']:.2f} s CPU, {plain['command_wall']:.2f} s wall "
              f"(ROADMAP baseline {BASELINE['evaluate']} s wall)")
        return
    for kind, keys in (("fluid epoch", ("u", "p")), ("solid epoch", ("d",))):
        cpu = [c for c, k in zip(plain["step_cpu_ms"], plain["step_keys"]) if k in keys]
        wall = [w for w, k in zip(plain["step_wall_ms"], plain["step_keys"]) if k in keys]
        if cpu:
            print(f"{kind} median: {statistics.median(cpu) / 1e3:.3f} s CPU, "
                  f"{statistics.median(wall) / 1e3:.3f} s wall over {len(cpu)} epochs "
                  f"(ROADMAP baseline {BASELINE[kind]} s wall at n=1000)")


# ----------------------------------------------------------------------
# stamp and entry point

def stamp() -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "vesselflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def declaration() -> dict:
    """BENCHMARK.json: the workloads and metrics, with units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vesselflow benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in declaration()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant faults and show that every check catches its own")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    started = time.monotonic()
    try:
        if not (SRC / "vesselflow" / "__init__.py").is_file():
            raise BenchError(f"no vesselflow sources under {SRC}")
        if args.self_test:
            import selftest
            return selftest.main(Runner(fresh_dir("selftest"), started + 600))
        return run_workload(args, started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


def run_workload(args, started) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = fresh_dir(tag)
    try:
        runner = Runner(work, started + TIME_LIMIT_S)
        inputs = {"mode": "field" if args.workload == "field-eval" else "train",
                  "config": scenario(args.workload)}
        if args.workload == "field-eval":
            inputs["checkpoint"] = work / "seeded.npz"
            write_checkpoint(inputs["config"], args.seed, inputs["checkpoint"])
        else:
            inputs["seed"] = args.seed
            if args.workload in CHECKPOINT_INTERVAL:
                inputs["checkpoint_interval"] = CHECKPOINT_INTERVAL[args.workload]
        info = stamp()
        print("stamp " + json.dumps(info))
        tally = Tally()
        if args.trace:
            metrics, report = run_traced(runner, tally, args.workload, args.seed, inputs)
            units = {m["name"]: m["unit"] for m in declaration()["per_layer"]}
        else:
            metrics, results = run_end_to_end(runner, tally, args.workload, inputs,
                                              args.seconds)
            report = {"operations": results}
            units = {m["name"]: m["unit"] for m in declaration()["end_to_end"]}
    finally:
        shutil.rmtree(work)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report.update(stamp=info, result=result, failures=tally.failures)
    report_path = WORK / f"{tag}.json"
    report_path.write_text(json.dumps(report, default=str))
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def fresh_dir(tag) -> Path:
    path = WORK / tag
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
