"""Steadiness report for the end-to-end benchmark.

``run.py --steadiness N`` runs each chosen workload ``N`` times, with seeds
``seed .. seed+N-1``, and prints per end-to-end metric the median, the
spread (interquartile range over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound.
A metric whose spread exceeds its bound is flagged; ``setup_s`` is
reported but never flagged, since only its median is held to the bound.

``run.py --count-check K`` runs one seed traced ``K`` times, under
``PYTHONHASHSEED`` 0..K-1, and lists every count (unit ``count``, plus
``attempted`` and ``failed``) that differs between those runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

#: A single run may take up to this long (the first one also builds).
RUN_TIMEOUT_S = 900


def _run(script: str, workload: str, seed: int, seconds: int, trace: int,
         hash_seed: Optional[int] = None) -> dict:
    env = os.environ.copy()
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    """Interquartile range over median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(script: str, spec: dict, workloads, seed: int, seconds: int,
         runs: int, count_check: int) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    summary: Dict[str, dict] = {}
    flagged = 0
    for workload in workloads:
        entry: dict = {}
        if runs:
            results = [_run(script, workload, seed + i, seconds, 0) for i in range(runs)]
            entry["correct"] = all(r["correct"] and r["failed"] == 0 for r in results)
            print(f"{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
                  f"all correct={entry['correct']}")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                median = statistics.median(values)
                share = spread(values)
                over = share > bound and name != "setup_s"
                flagged += over or not entry["correct"]
                entry[name] = {"median": median, "spread": share, "bound": bound, "values": values}
                print(f"  {name:16s} median {median:12.4f}  spread {share:7.2%}  "
                      f"bound {bound:5.0%}{'  OVER BOUND' if over else ''}")
        if count_check:
            results = [_run(script, workload, seed, seconds, 1, h) for h in range(count_check)]
            counts = [
                dict({k: v["value"] for k, v in r["metrics"].items() if units[k] == "count"},
                     attempted=r["attempted"], failed=r["failed"])
                for r in results
            ]
            differing = sorted(k for k in counts[0] if len({c[k] for c in counts}) > 1)
            flagged += bool(differing)
            entry["counts_differing"] = differing
            print(f"{workload}: counts of seed {seed} over PYTHONHASHSEED 0..{count_check - 1}: "
                  f"{'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
        summary[workload] = entry
    print(json.dumps(summary))
    return 1 if flagged else 0
