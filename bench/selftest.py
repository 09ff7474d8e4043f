"""Fault injection: shows that every output check can fail.

    python3 bench/run.py --self-test

Each case plants one fault (bench/op.py --inject) in a small workload and
expects the harness to count a failed operation for the named reason; each
clean control must pass every check. Exit status 0 means every fault was
caught and no control failed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks
import run


def _case(runner, label, workload, inputs, expect, reference=None, **opts):
    tally = run.Tally()
    result = runner.op(**inputs, **opts)
    result["label"] = label
    if tally.op(label, result):
        run.file_checks(tally, label, workload, result, reference)
    return _verdict(label, expect, tally.failures), result


def _verdict(label, expect, failures) -> bool:
    if expect is None:
        ok = not failures
        print(f"{'PASS' if ok else 'FAIL'} control {label}: "
              f"{'clean' if ok else '; '.join(failures)}")
    else:
        ok = any(expect in f for f in failures)
        print(f"{'PASS' if ok else 'FAIL'} fault {label}: "
              f"{'caught (' + expect + ')' if ok else 'not caught'}")
    return ok


def _poisoned_history(source: Path, dest: Path, cell: str) -> Path:
    """Copy of a history.csv with the last fluid_total replaced by `cell`."""
    lines = source.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    row[header.index("fluid_total")] = cell
    dest.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    return dest


def main(runner: run.Runner) -> int:
    work = runner.work
    flow_cfg = json.loads(run.scenario("flow-train").read_text())
    flow_cfg["training"].update(ladder_steps=0)
    (work / "flow-mini.json").write_text(json.dumps(flow_cfg))
    flow = {"mode": "train", "config": work / "flow-mini.json", "seed": 0}
    fsi = {"mode": "train", "config": run.probe_config(work / "fsi-mini.json"), "seed": 0}
    run.write_checkpoint(fsi["config"], 0, work / "seeded.npz")
    field = {"mode": "field", "config": fsi["config"], "checkpoint": work / "seeded.npz",
             "grid": (16, 16, 4)}

    verdicts = []
    ok, control = _case(runner, "flow", "flow-train", flow, None, check=True)
    verdicts.append(ok)
    for label, inputs, expect, opts in (
            ("flow traced", flow, None, {"trace": True}),
            ("flow gradient x1.01", flow, "fd_grad.u", {"inject": "grad-scale", "check": True}),
            ("flow NaN loss", flow, "non-finite", {"inject": "nan-loss"}),
            ("flow tracer perturbs theta", flow, "history.csv vs",
             {"inject": "trace-perturb", "trace": True}),
            ("flow optimizer takes no step", flow, "fluid stages",
             {"inject": "adam-frozen", "check": True}),
            ("fsi", fsi, None, {"check": True}),
            ("fsi gradient x1.01", fsi, "fd_grad.d", {"inject": "grad-scale", "check": True}),
            ("fsi solid phase skipped", fsi, "trained.d", {"inject": "skip-solid", "check": True}),
            ("field", field, None, {"check": True}),
            ("field read off by 1e-9", field, "field_read",
             {"inject": "field-shift", "check": True}),
            ("evaluate error off by 1e-5", field, "evaluate_error",
             {"inject": "error-scale", "check": True}),
            ("export missing a slice", field, "export rows", {"inject": "export-short"})):
        workload = "field-eval" if inputs is field else "flow-train"
        verdicts.append(_case(runner, label, workload, inputs, expect,
                              reference=control if inputs is flow else None, **opts)[0])

    history = Path(control["out_dir"]) / "history.csv"
    for label, cell in (("history holds nan", "nan"), ("history holds a blank loss", "")):
        ok, detail = checks.history_finite(
            _poisoned_history(history, work / "poisoned.csv", cell))
        verdicts.append(_verdict(label, "history", [] if ok else [f"history: {detail}"]))

    shutil.rmtree(work)
    caught = sum(verdicts)
    print(f"self-test: {caught} of {len(verdicts)} cases as expected")
    return 0 if caught == len(verdicts) else 1
