r"""Paired benchmark runs of two commits; writes ``BENCH_<pr>.json``.

    python3 tools/pairs.py --base REV --pairs N --seconds S \
        --workload W [W ...] [--seed N [N ...]] --pr N

The base side is ``REV`` and the head side is ``HEAD``.  Each side is
exported with ``git archive`` into its own temporary directory, so the
measured files are exactly the committed ones and the repository's
``.git`` is left as it was.  For each workload and seed the
pairs run one after another, alternating which side runs first, and every
run is a fresh ``python3 bench/run.py`` with the same arguments on both
sides.  A run that exits non-zero or prints no result is recorded with its
error and left out of the statistics.

For each metric the file gives both sides' median and quartiles, the pairs
the head side won (by the direction ``BENCHMARK.json`` gives the metric;
ties count for neither), the ratio of medians, and the bound
``BENCHMARK.json`` fixes for an end-to-end metric.  It also records nproc,
the CPU model, the Python and numpy versions, and both commits.  With
``--base HEAD`` it measures the noise floor (an A/A run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit), check=True)
    return commit


def machine() -> dict:
    """The CPUs this process may run on, the CPU model and the versions."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(tree: Path, args: list[str]) -> dict:
    """One fresh benchmark process in ``tree``; its result line, or an error."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}"}


def summarize(runs: dict[str, list[dict]], declared: dict) -> dict:
    """Per-metric medians, quartiles, head wins and bound over the pairs."""
    ok = [(b, h) for b, h in zip(runs["base"], runs["head"])
          if "error" not in b and "error" not in h]
    metrics = {}
    for name in sorted({m for b, h in ok for m in b["metrics"].keys() & h["metrics"].keys()}):
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in ok
                 if name in b["metrics"] and name in h["metrics"]]
        spec = declared.get(name, {})
        higher = spec.get("better") == "higher"
        row = {"unit": ok[0][0]["metrics"][name]["unit"], "better": spec.get("better"),
               "bound": spec.get("bound"), "pairs": len(pairs)}
        for i, side in enumerate(SIDES):
            values = [p[i] for p in pairs]
            q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
            row[side] = {"median": q2, "q1": q1, "q3": q3, "values": values}
        if spec.get("better"):
            row["head_wins"] = sum((h > b) if higher else (h < b) for b, h in pairs)
        base = row["base"]
        if base["median"]:
            row["head_over_base"] = row["head"]["median"] / base["median"]
        row["median_gap_over_base_iqr"] = (
            abs(row["head"]["median"] - base["median"]) / (base["q3"] - base["q1"])
            if base["q3"] > base["q1"] else None)
        metrics[name] = row
    return {
        "correct": {s: [r.get("correct") for r in runs[s]] for s in SIDES},
        "failed": {s: [r.get("failed") for r in runs[s]] for s in SIDES},
        "errors": {s: [r["error"] for r in runs[s] if "error" in r] for s in SIDES},
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in bench["end_to_end"]}
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {"pr": args.pr, "machine": machine(),
           "settings": {"pairs": args.pairs, "seconds": args.seconds, "seeds": args.seed},
           "results": {}}
    tmp = Path(tempfile.mkdtemp(prefix="vsensor-pairs-"))
    try:
        trees = {}
        for side, rev in zip(SIDES, (args.base, "HEAD")):
            trees[side] = tmp / side
            doc[side] = {"rev": rev, "commit": export(rev, trees[side])}
        for workload in args.workload:
            for seed in args.seed:
                bench_args = ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(args.seconds)]
                runs: dict[str, list[dict]] = {s: [] for s in SIDES}
                for k in range(args.pairs):
                    for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                        runs[side].append(run_once(trees[side], bench_args))
                        print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} {side}: "
                              f"{json.dumps(runs[side][-1])[:300]}", file=sys.stderr, flush=True)
                doc["results"][f"{workload}/seed{seed}"] = summarize(runs, declared)
                out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
