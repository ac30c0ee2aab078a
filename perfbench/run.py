"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload probe_batch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload half untraced and half with layer
wrappers installed, prints the per-layer metrics and writes the spans to
``perfbench/out/``. End-to-end times are reported at the reference host
speed of ``perfbench/calibrate.py``; per-layer times are as measured,
with the host's speed against the reference beside them
(``host.speed``). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The process exits 1 if any answer was wrong and 2 if the program under
test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS  # imports repro

    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    layer_names = [entry["name"] for entry in manifest["per_layer"]]
    outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace), layer_names)
    if args.trace:
        values = dict(outcome.layers, **{"host.speed": outcome.scale})
    else:
        values = outcome.metrics
    missing = {entry["name"] for entry in wanted} - set(values)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")

    for note in outcome.notes:
        print(f"# {note}")
    for entry in wanted:
        print(f"{entry['name']:<36} {values[entry['name']]:>16.6f} "
              f"{entry['unit']}")
    if outcome.tracer is not None:
        print("# layer self time and counts (traced phase):")
        for name, entry in sorted(outcome.tracer.layer_totals().items()):
            print(f"#   {name:<28} calls {entry['calls']:>8} "
                  f"count {entry['count']:>9} total {entry['total_s']:9.4f} s "
                  f"self {entry['self_s']:9.4f} s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        outcome.tracer.write(str(path))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
