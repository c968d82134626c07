"""Medians and quartiles of recorded runs, as a Markdown table.

    python3 perfbench/summarize.py --trace 0 --seeds 1-10
    python3 perfbench/summarize.py --trace 1 --seeds 1-10 --workloads reverify

Reads ``perfbench/results/<workload>_seed<n>_trace<t>.json`` as written by
``run.py``. The spread column is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, the figure the bounds in
BENCHMARK.json are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def table(workload: str, trace: int, seeds: list[int]) -> str:
    runs = [json.loads((RESULTS / f"{workload}_seed{s}_trace{trace}.json").read_text())
            for s in seeds]
    failed = sorted({(r["failed"], r["attempted"]) for r in runs})
    lines = [f"**{workload}** (trace {trace}, {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}; "
             f"failed/attempted per run: {', '.join(f'{f}/{a}' for f, a in failed)}; "
             f"correct: {all(r['correct'] for r in runs)})", "",
             "| metric | unit | median | q1 | q3 | spread |", "|---|---|---|---|---|---|"]
    for key, meta in runs[0]["metrics"].items():
        vals = [r["metrics"][key]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = f"{(q3 - q1) / abs(med):.3f}" if med else "-"
        lines.append(f"| {key} | {meta['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread} |")
    return "\n".join(lines)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="construct,reverify,mesh")
    args = ap.parse_args()
    print("\n\n".join(table(w, args.trace, seed_list(args.seeds))
                      for w in args.workloads.split(",")))


if __name__ == "__main__":
    main()
