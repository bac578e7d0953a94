"""Benchmark of the curvedwigner CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop with a single
client: one fresh ``python -m curvedwigner.cli ...`` process at a time (the
CLI's default ``--workers 1``), started again as soon as the previous one
ends, while another process brings the measured time closer to
``--seconds`` (at least one process runs).
Fresh processes are used because users pay the import and the per-process
momentum-calibration cache on every invocation.

The seed jitters the depth and the axis extents by up to 2% and picks the
grid points the oracle checks.  Checks run outside every timed interval:

* every invocation's exit code, its manifest (``artifacts.validate_manifest``)
  and its SHA-256 set, which must equal that of the run's first invocation
  and of every earlier run of the same seed in this checkout (for
  ``verify`` the criterion verdicts stand in for the SHA-256 set);
* the values of the first invocation, read back from its CSVs and compared
  with independent references (``oracle.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the CLI
once untraced and then under ``traced_cli.py`` and reports per-layer
metrics, the tracing overhead and each workload's defining property.  The
last line of standard output is one JSON object; a full record of the run
(machine, seed, inputs, samples, checks) is written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_REPEATS = 9
JITTER = 0.02

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    s: float | None = None
    grid: tuple | None = None        # (chi_max, n_chi, p_max, n_p)
    oracle_points: int = 0           # grid points sampled per written panel
    certified: tuple = (0.0, 1.0)    # wigner.certified_share range that defines it

    def inputs(self, seed: int):
        """CLI arguments for this seed (without --out), and the inputs."""
        rng = random.Random(seed)
        args = [self.command]
        info = {}
        if self.s is not None:
            s = float(format(self.s * (1.0 + rng.uniform(-JITTER, JITTER)), ".6g"))
            chi_max, n_chi, p_max, n_p = self.grid
            chi_max = float(format(chi_max * (1.0 + rng.uniform(-JITTER, JITTER)), ".6g"))
            p_max = float(format(p_max * (1.0 + rng.uniform(-JITTER, JITTER)), ".6g"))
            args += ["--s", repr(s), "--n", "0,1,2,3",
                     "--grid", f"0:{chi_max!r}:{n_chi},0:{p_max!r}:{n_p}"]
            info = {"s": s, "chi_max": chi_max, "n_chi": n_chi, "p_max": p_max, "n_p": n_p}
        return args, info

    def points(self) -> int:
        """Grid points one figure1 invocation writes (0 for verify)."""
        return 4 * self.grid[1] * self.grid[3] if self.grid else 0

    def property_text(self) -> str:
        lo, hi = self.certified
        return f"wigner touched, {lo} <= wigner.certified_share <= {hi}"

    def property_holds(self, layers: dict) -> bool:
        lo, hi = self.certified
        return layers["wigner.grid_calls"] > 0 and lo <= layers["wigner.certified_share"] <= hi


WORKLOADS = {w.name: w for w in [
    Workload("figure1_shallow",
             "the closed-form 2F1 column series does nearly all the work; the hot spot a grid engine would replace",
             "figure1", 4.0, (4.0, 128, 4.0, 128), 256, (0.9, 1.0)),
    Workload("figure1_deep",
             "the cancellation guard trips: most points fall back to per-point Gauss-Kronrod quadrature",
             "figure1", 30.0, (4.0, 64, 4.0, 64), 512, (0.0, 0.5)),
    Workload("verify_suite",
             "the certification workflow users run; closed-form grids summed into marginals dominate, and it is the only workload that runs every module",
             "verify"),
]}


def machine_info() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": threads, "cli_workers": 1}


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def run_child(argv, log_dir: Path | None, deadline: float):
    """Run one process to completion; returns (exit code, wall s, peak RSS KiB).

    The process is killed if it is still running at ``deadline``."""
    if log_dir is None:
        out = err = subprocess.DEVNULL
    else:
        out = open(log_dir / "stdout.txt", "wb")
        err = open(log_dir / "stderr.txt", "wb")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode if ready else -9), wall, usage.ru_maxrss
    finally:
        if log_dir is not None:
            out.close()
            err.close()


def measure_setup(deadline: float, repeats: int) -> list[float]:
    """Fresh-process import time of curvedwigner.cli; one untimed warm-up
    first, so byte-compilation of a fresh checkout is not counted."""
    argv = [sys.executable, "-c", "import curvedwigner.cli"]
    times = []
    for _ in range(repeats + 1):
        rc, wall, _ = run_child(argv, None, deadline)
        if rc != 0:
            raise RuntimeError("importing curvedwigner.cli failed")
        times.append(wall)
    return times[1:]


def check_invocation(work: Workload, inv: Path, rc: int):
    """Outcome signature of one invocation (SHA-256 set, or criterion
    verdicts for verify) and the reason it failed, if it did."""
    from curvedwigner.artifacts import validate_manifest
    from curvedwigner.errors import ConfigError

    if work.command == "verify":
        try:
            report = json.loads((inv / "verify_report.json").read_text(encoding="utf-8"))
            verdicts = {c["name"]: c["passed"] for c in report["criteria"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return None, f"no readable verify report ({exc!r})"
        if rc != (0 if report["all_passed"] else 1):
            return verdicts, f"exit code {rc} disagrees with the report"
        return verdicts, None
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        doc = validate_manifest(inv / "manifest.json")
    except (OSError, ValueError, KeyError, ConfigError) as exc:
        return None, f"manifest does not validate ({exc})"
    return {e["path"]: e["sha256"] for e in doc["files"]}, None


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def fail_all(invocations, reason: str) -> None:
    for inv in invocations:
        inv["problem"] = inv["problem"] or reason


def same_as_earlier_runs(workload: str, seed: int, signature: dict) -> bool:
    """Compare the outcome signature with the one the first run of this
    workload and seed left in the checkout, or record it.  Signatures are
    kept per version of the sources, so editing the program starts afresh."""
    sources = hashlib.sha256()
    for src in sorted((ROOT / "src" / "curvedwigner").glob("*.py")):
        sources.update(src.read_bytes())
    path = BUILD / "signatures" / sources.hexdigest()[:16] / f"{workload}-seed{seed}.json"
    if path.exists():
        return json.loads(path.read_text()) == signature
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(signature, sort_keys=True))
    return True


def run_workload(work: Workload, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    args, inputs = work.inputs(seed)
    tag = f"{work.name}-seed{seed}-trace{int(trace)}"
    run_dir = BUILD / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = measure_setup(deadline, 0 if trace else SETUP_REPEATS)

    invocations = []       # dicts: traced, wall, rss_kb, rc, problem
    signature = None
    layer_runs = []

    def invoke(traced: bool) -> None:
        nonlocal signature
        k = len(invocations)
        inv = run_dir / f"inv{k}"
        inv.mkdir()
        spans = run_dir / f"spans{k}.npz"
        cli = ([sys.executable, str(HERE / "traced_cli.py"), str(spans)] if traced
               else [sys.executable, "-m", "curvedwigner.cli"])
        rc, wall, rss = run_child(cli + args + ["--out", str(inv)], inv, deadline)
        sig, problem = check_invocation(work, inv, rc)
        if problem is None and signature is not None and sig != signature:
            problem = "outputs differ from the run's first invocation"
        if k == 0:
            signature = sig
        invocations.append({"traced": traced, "wall_s": wall, "rss_kb": rss, "rc": rc,
                            "problem": problem})
        if traced and problem is None:
            layer_runs.append(tracer.layer_metrics(spans))
        if k > 0:
            shutil.rmtree(inv)

    # closed loop: the next invocation starts when the previous one ends
    if trace:
        invoke(traced=False)
    measured, timed_runs = 0.0, 0
    # until the measured time is as close to --seconds as whole runs allow
    while timed_runs == 0 or (measured + invocations[-1]["wall_s"] / 2 < seconds
                              and invocations[-1]["problem"] is None):
        invoke(traced=trace)
        timed_runs += 1
        measured += invocations[-1]["wall_s"]

    # correctness, outside every timed interval
    first = invocations[0]
    oracle = None
    if work.command == "verify":
        verdicts = signature or {}
        ops = len(verdicts) * len(invocations)
        failed_ops = sum(not v for v in verdicts.values()) * len(invocations)
    elif first["problem"] is None:
        import oracle as oracle_mod
        oracle = oracle_mod.check_run(run_dir / "inv0", work.oracle_points,
                                      random.Random(seed * 1_000_003 + 1))
        if oracle.wrong:
            fail_all(invocations, f"{oracle.wrong} oracle points grossly wrong")
        ops, failed_ops = oracle.points, oracle.failed
    else:
        ops, failed_ops = 0, 0
    if first["problem"] is None and not same_as_earlier_runs(work.name, seed, signature):
        fail_all(invocations, "outputs differ from an earlier run of this seed")
    attempted = len(invocations)
    failed = sum(inv["problem"] is not None for inv in invocations)
    if failed or ops == 0:
        # a failed invocation fails every operation of the run
        failed_ops = ops = max(ops, 1)
    shutil.rmtree(run_dir, ignore_errors=True)

    timed = [inv for inv in invocations if inv["traced"] == trace]
    walls = [inv["wall_s"] for inv in timed]
    wall = median(walls)
    units = work.points() or len(signature or {}) or 1
    e2e = {
        "wall_s": wall,
        "setup_s": median(setup),
        "points_per_s": units / wall if wall else 0.0,
        "peak_rss_mb": max(inv["rss_kb"] for inv in timed) / 1024.0,
        "passed_share": 1.0 - failed_ops / ops,
    }
    record = {
        "workload": work.name, "why": work.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "inputs": inputs, "cli_args": args, "machine": machine_info(),
        "invocations": invocations, "setup_samples_s": setup,
        "operations": ops, "failed_operations": failed_ops, "failed_share": failed_ops / ops,
        "err_ratio_max": oracle.err_ratio_max if oracle else None,
        "oracle_files": oracle.files if oracle else None,
        "verify_verdicts": signature if work.command == "verify" else None,
        "wall_tail": tail_percentile(walls), "elapsed_s": time.monotonic() - t_start,
    }
    if trace:
        layers = {m: median([r[m] for r in layer_runs]) for m, _ in tracer.LAYER_METRICS}
        untraced = invocations[0]["wall_s"]
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = wall - untraced
        record["layers"] = layers
        record["property"] = {"definition": work.property_text(),
                              "holds": bool(layer_runs) and work.property_holds(layers)}
        metrics = {m: {"value": layers[m], "unit": u} for m, u in per_layer_units()}
    else:
        record["end_to_end"] = e2e
        metrics = {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END}
    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def per_layer_units():
    return tracer.LAYER_METRICS + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]


def report(result: dict) -> list[str]:
    rec = result["record"]
    m = rec["machine"]
    lines = [f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  inputs={rec['inputs'] or '-'}",
             f"   why: {rec['why']}",
             f"   machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
             f"numpy={m['numpy']} blas={m['blas']} threads={m['threads']} workers={m['cli_workers']}"]
    walls = [inv["wall_s"] for inv in rec["invocations"] if inv["traced"] == bool(rec["trace"])]
    tail = rec["wall_tail"]
    lines.append(f"   wall samples: n={len(walls)}  median={median(walls):.4f} s  "
                 + (f"p{tail[0]:.1f}={tail[1]:.4f} s" if tail else "tail percentile: none (fewer than 11 samples)"))
    for name, metric in result["metrics"].items():
        lines.append(f"   {name:34s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"   failed_share {rec['failed_share']:.4g} ({rec['failed_operations']}/{rec['operations']} operations)"
                 + (f"  err_ratio_max {rec['err_ratio_max']:.4g}" if rec["err_ratio_max"] is not None else ""))
    if rec["trace"]:
        prop = rec["property"]
        lines.append(f"   property ({prop['definition']}): "
                     + ("holds" if prop["holds"] else "LOST for this seed (flagged)"))
    for k, inv in enumerate(rec["invocations"]):
        if inv["problem"]:
            lines.append(f"   invocation {k} FAILED: {inv['problem']}")
    lines.append(f"   correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (ROOT / "src" / "curvedwigner" / "cli.py").is_file():
        print(f"error: no curvedwigner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], opts.seed, opts.seconds, bool(opts.trace))
        print("\n".join(report(res)), flush=True)
        results[name] = res
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
