"""Compare two directories of perfbench results, metric by metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Result files (.bench_out/results/*.json) are grouped by workload and trace
mode.  For each metric the script prints the median over each side's files
and the change's median as a ratio of the parent's.  A group whose files
carry more than one machine fingerprint is labelled NOT COMPARABLE and gets
no ratios; a group with a failed run says so.
"""

import json
import os
import statistics
import sys


def load(directory):
    groups = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                result = json.load(fh)
            groups.setdefault((result["workload"], result["trace"]), []).append(result)
    return groups


def median_of(results, metric):
    values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
    return statistics.median(values) if values else None


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(set(parent) & set(change)):
        old, new = parent[key], change[key]
        notes = []
        if len({r["machine"]["fingerprint"] for r in old + new}) > 1:
            notes.append("NOT COMPARABLE: machine fingerprints differ")
        if not all(r["correct"] for r in old + new):
            notes.append("a run FAILED its checks")
        print(f"{key[0]} trace={key[1]}: {len(old)} vs {len(new)} runs  {'; '.join(notes)}")
        for metric in sorted({m for r in old + new for m in r["metrics"]}):
            a, b = median_of(old, metric), median_of(new, metric)
            ratio = f"{b / a:8.3f}" if a and b is not None and not notes else ""
            print(f"  {metric:<48} {a!s:>22} {b!s:>22} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
