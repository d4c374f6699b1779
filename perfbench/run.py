"""forestprox benchmark: fit, tune and kernel workloads.

    python3 perfbench/run.py [--workload fit|tune|kernel|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src`. Each workload runs in a fresh process
of its own with numpy's thread pools capped. With --trace 0 the last line
of output is a JSON object with every end-to-end metric, with --trace 1
one with every per-layer metric. Exits nonzero when an output check
fails or the program cannot be found. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit", "tune", "kernel")
TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cap = str(min(2, len(os.sched_getaffinity(0))))
    env.update({var: cap for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = ROOT / ".perfbench_runs" / f"{workload}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {TIMEOUT_S} s")
    if not result_path.exists():
        raise SystemExit(f"{workload}: the workload process exited {proc.returncode} without a result")
    return json.loads(result_path.read_text(encoding="utf-8"))


def summary(r: dict) -> str:
    metrics = ", ".join(
        f"{name} {m['value']:.4g} {m['unit']}" for name, m in r["metrics"].items()
    )
    status = "ok" if r["correct"] else f"CHECK FAILED: {r.get('message')}"
    return (
        f"# {r['workload']} seed {r['seed']}: {status}; {r['attempted']} operations, "
        f"{r['failed']} failed, {r['setups']} set-ups, {r['rounds']} rounds; {metrics}"
    )


def public(r: dict) -> dict:
    return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "forestprox" / "__init__.py").is_file():
        print(f"forestprox sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks

    wrong = checks.self_test()
    if wrong:
        print(f"output checks accept wrong outputs: {wrong}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(summary(results[name]), flush=True)
    if args.workload == "all":
        print(json.dumps({name: public(r) for name, r in results.items()}))
    else:
        print(json.dumps(public(results[args.workload])))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
