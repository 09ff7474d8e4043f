"""Summarize benchmark reports: per workload, trace setting and metric,
the median, quartiles and spread (IQR over median) across runs.

    python3 bench/summarize.py .bench_runs/*.json [--out BENCH_label.json]

Spreads are computed as `statistics.quantiles(values, n=4)` gives them.
Each group lists the seeds of its runs, read from the report file names.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics


def summarize(paths) -> dict:
    runs = collections.defaultdict(list)
    seeds = collections.defaultdict(list)
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        name = path.rsplit("/", 1)[-1]
        workload, rest = name.split("-seed")
        seed, rest = rest.split("-trace")
        group = f"{workload} trace{rest[0]}"
        runs[group].append(report)
        seeds[group].append(int(seed))
    out = {}
    for group, reports in sorted(runs.items()):
        metrics = {}
        for metric, entry in reports[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in reports]
            median = statistics.median(values)
            metrics[metric] = {"unit": entry["unit"], "median": median, "values": values}
            if len(values) > 1 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metrics[metric].update(q1=q1, q3=q3, spread=(q3 - q1) / median)
        out[group] = {"runs": len(reports), "seeds": seeds[group],
                      "failed": sum(r["result"]["failed"] for r in reports),
                      "stamp": reports[0]["stamp"], "metrics": metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+")
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args(argv)
    summary = summarize(args.reports)
    for group, s in summary.items():
        print(f"{group}: {s['runs']} runs (seeds {s['seeds']}), "
              f"{s['failed']} failed operations")
        for name, m in s["metrics"].items():
            spread = f"{m['spread']:.3f}" if "spread" in m else "n/a"
            print(f"  {name:28} median {m['median']:14.4f} {m['unit']:8} spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
