"""Record the values the benchmark's correctness gate compares.

Usage, from the repository root::

    python3 bench/record.py --seeds 0-15 [--workload long-tokens]

Runs one CLI pipeline per workload and seed and stores the ighb and
iglb patch counts and stop reasons, the ``comparison.csv`` rows and the
ablation BSS values in ``bench/expected.json``.  Later benchmark runs
on a recorded seed count any difference as a failed operation.  Record
only on a commit whose outputs are known to be right.
"""

import argparse
import json
import subprocess
import sys

import run
from checks import EXPECTED_PATH, load_expected


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="Inclusive range, such as 0-15.")
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), help="Default: all.")
    args = parser.parse_args()
    expected = load_expected()
    for name in [args.workload] if args.workload else sorted(run.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", "0", "--trace", "0"]
            subprocess.run(argv, cwd=run.ROOT, stdout=subprocess.DEVNULL, check=True)
            results = run.WORK_ROOT / "results" / f"{name}-seed{seed}-trace0.json"
            result = json.loads(results.read_text(encoding="utf-8"))
            if result["failed"]:
                print(f"warning: {name} seed {seed}: {result['problems']}", file=sys.stderr)
            entry = {"records": result["env"]["records"], **result["observed"]}
            expected.setdefault(name, {})[str(seed)] = entry
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    lines = [
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"    {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
            for seed, entry in sorted(entries.items(), key=lambda item: int(item[0]))
        )
        + "\n  }"
        for name, entries in sorted(expected.items())
    ]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
