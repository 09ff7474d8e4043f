"""Does the calibration loop track the host's speed on this machine?

    PYTHONPATH=src python3 bench/calibration_check.py --scenario flow-train --seconds 40

Alternates the calibration loop (spans.calibration_loop) with one fluid
replay and u backward pass of the scenario's record, as the untraced
operations do, then prints the means of blocks of ten replays, raw and
scaled by the loops either side, each over the median block. If the host
changed speed during the run, the raw blocks move and the scaled ones
should stay near 1.
"""

from __future__ import annotations

import argparse
import statistics
import time

import checks
import spans
from run import scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="flow-train", choices=("flow-train", "fsi-train"))
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    from vesselflow.config import load_config
    from vesselflow.physics import draw_samples
    from vesselflow.trainer import build_networks

    config = load_config(scenario(args.scenario))
    t = config.training
    samples = draw_samples(config.vessel_geometry(), t.interior_points, t.wall_points,
                           t.port_points, seed=1)
    graph = checks.fluid_graph(config, build_networks(config, 1), samples, 1e-7)

    def cpu(fn, *fn_args):
        start = time.process_time()
        fn(*fn_args)
        return time.process_time() - start

    loops, work = [cpu(spans.calibration_loop)], []
    stop = time.monotonic() + args.seconds
    while time.monotonic() < stop:
        work.append(cpu(lambda: (graph.replay(), graph.param_grads(["u"]))))
        loops.append(cpu(spans.calibration_loop))
    scaled = [w / ((a + b) / 2) for w, a, b in zip(work, loops, loops[1:])]

    print(f"{len(work)} replays, median {statistics.median(work) * 1e3:.1f} ms; "
          f"loop median {statistics.median(loops) * 1e3:.2f} ms")
    for label, values in (("raw", work), ("scaled", scaled)):
        blocks = [statistics.mean(values[i:i + 10]) for i in range(0, len(values) - 9, 10)]
        mid = statistics.median(blocks)
        print(f"{label:6} blocks of 10: {min(blocks) / mid:.2f}-{max(blocks) / mid:.2f} "
              f"of their median: " + " ".join(f"{b / mid:.2f}" for b in blocks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
