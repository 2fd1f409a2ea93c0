"""Record the random suite's per-input statuses for both routes.

    python3 perfbench/record_verdicts.py

Writes ``random_suite_verdicts.json`` next to this file.  The benchmark
counts an input as failed when a route's definite outcome differs from
the one recorded here; an input recorded as inconclusive may conclude.
Re-record only in a change that corrects the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import run  # puts src/ and this directory on sys.path
import workloads
from padlver.pretty import pretty_print


def main() -> int:
    pipeline = run.Pipeline()
    records = []
    for k, (description, capacity) in enumerate(workloads.random_suite_draws()):
        inp = workloads.Input(f"random-suite#{k:03d}", pretty_print(description), capacity,
                              workloads.RANDOM_SUITE_STATE_LIMIT, {})
        record = {"index": k, "capacity": capacity}
        for route in run.ROUTES:
            doc = json.loads(pipeline.check(inp, route))[run.REPORT_KEY[route]]
            record[route] = doc["status"]
        records.append(record)
        print(record, flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=workloads.ROOT).stdout.strip()
    header = {
        "recorded_at_commit": commit,
        "generator_seed": workloads.RANDOM_SUITE_SEED,
        "state_limit": workloads.RANDOM_SUITE_STATE_LIMIT,
    }
    lines = [f' "{key}": {json.dumps(value)},' for key, value in header.items()]
    rows = ",\n".join(f"  {json.dumps(record)}" for record in records)
    text = "{\n" + "\n".join(lines) + '\n "inputs": [\n' + rows + "\n ]\n}\n"
    workloads.RANDOM_VERDICTS.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
