"""gapwords benchmark: CLI ops end to end, and per-layer timings from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload count-gaps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report each

Each op is one ``python -m gapwords.cli ...`` subprocess with
``PYTHONPATH=src``, interpreter start and import included. One client sends
ops one after another (a closed loop) in whole rounds of the workload's
cases until --seconds of op time have passed. Every output is checked
against an independent reference outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 also runs every case in
this process under the span tracer of tracing.py and prints the per-layer
metrics instead; the spans are written to perfbench/.work/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference
from workloads import DEFECT_PROBE_ARGV, WORKLOADS, Case, Plan

OP_TIMEOUT_S = 30.0  # a failed or timed-out op is charged this much
OVERRUN_S = 60.0  # no new op starts this long after --seconds, even mid-round
# setup_s is the median import time over samples taken before the first round
# and after every round, so that it spans the same stretch of time as the ops.
IMPORT_SAMPLES = 5
IMPORT_SAMPLES_PER_ROUND = 3
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"


class Launcher:
    """The small helper process of launcher.py that spawns and times every child."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONINTMAXSTRDIGITS", None)  # children keep the default digit limit
        # Children may write bytecode caches (into src/), as an installed
        # package has them; otherwise every op would compile gapwords again.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )

    def run(self, args: list[str]) -> tuple[dict, bytes, bytes]:
        """Run ``python <args>``; returns the launcher's report, stdout and stderr."""
        out, err = WORK / "stdout", WORK / "stderr"
        req = {"argv": [sys.executable, *args], "stdout": str(out), "stderr": str(err), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line), out.read_bytes(), err.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_args(case_argv) -> list[str]:
    return ["-m", "gapwords.cli", *case_argv]


def import_samples(launcher: Launcher, count: int) -> list[float]:
    """Wall times of fresh interpreters that import gapwords.cli and exit."""
    samples = []
    for _ in range(count):
        res, _, err = launcher.run(["-c", "import gapwords.cli"])
        if res["exit"] != 0:
            raise RuntimeError(f"import gapwords.cli failed: {err.decode(errors='replace')[-300:]}")
        samples.append(res["wall_s"])
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least 10 values above its rank.

    With fewer than 20 values no listed percentile qualifies and the maximum
    (p100) is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest rank, 1-based
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    plan = Plan(workload, seed)
    ref = Reference()
    t0 = time.perf_counter()
    import_samples(launcher, 1)  # writes the bytecode caches; not counted
    setup_samples = import_samples(launcher, IMPORT_SAMPLES)
    for case in sorted(plan.cases, key=lambda c: -c.n):  # longest series first: shorter ones reuse it
        ref.digest_for(case)
    prep_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    ops: list[dict] = []
    traced_ops: list[dict] = []
    problems: list[str] = []
    probe = None
    timed = 0.0
    start = time.perf_counter()
    rnd = 0
    overrun = False
    # Whole rounds only, so every run holds each case equally often. Another
    # round starts while at least half of one still fits in --seconds.
    while not overrun and (rnd == 0 or timed + timed / rnd / 2 <= seconds):
        for case in plan.round():
            overrun = time.perf_counter() - start > seconds + OVERRUN_S
            if overrun:
                break
            op = run_op(launcher, ref, case, len(ops), rnd)
            ops.append(op)
            timed += op["wall_s"]
            if not op["ok"]:
                problems.append(f"{case.label}: {op['why']}  argv: {' '.join(case.argv)}")
            if tracer is not None:
                traced_ops.append(run_traced(tracer, case, op, rnd))
                timed += traced_ops[-1]["span_s"]
        setup_samples += import_samples(launcher, IMPORT_SAMPLES_PER_ROUND)
        rnd += 1
    elapsed = time.perf_counter() - start

    if workload == "intervals-bigint":
        probe = run_probe(launcher, tracer, len(ops), traced_ops)

    return {
        "workload": workload,
        "seed": seed,
        "plan": plan,
        "ops": ops,
        "traced_ops": traced_ops,
        "tracer": tracer,
        "rounds": rnd,
        "problems": problems,
        "probe": probe,
        "setup_s": statistics.median(setup_samples),
        "setup_samples": setup_samples,
        "prep_s": prep_s,
        "elapsed_s": elapsed,
    }


def run_op(launcher: Launcher, ref: Reference, case: Case, op_id: int, rnd: int) -> dict:
    res, out, err = launcher.run(cli_args(case.argv))
    if res["timed_out"]:
        ok, why = False, f"timed out after {OP_TIMEOUT_S} s"
    elif res["exit"] != 0:
        ok, why = False, f"exit {res['exit']}: {err.decode(errors='replace').strip()[-200:]}"
    else:
        ok, why = ref.check(case, out)
    return {
        "op": op_id,
        "round": rnd,
        "case": case.label,
        "wall_s": res["wall_s"],
        "maxrss_kb": res["maxrss_kb"],
        "stdout_bytes": len(out),
        "ok": ok,
        "why": why,
    }


def run_traced(tracer, case: Case, op: dict, rnd: int) -> dict:
    """The same case in process, traced; it must print exactly what the subprocess printed."""
    with tracer.installed():
        code, nbytes, counts = tracer.run_op(op["op"], list(case.argv))
    ok = code == 0 and (not op["ok"] or nbytes == op["stdout_bytes"])
    span = next(s for s in reversed(tracer.spans) if s["name"] == "op")
    return {
        "op": op["op"],
        "round": rnd,
        "case": case.label,
        "exit": code,
        "ok": ok,
        "bytes": nbytes,
        "counts": counts,
        "untraced_s": op["wall_s"],
        "span_s": span["end"] - span["start"],
    }


def run_probe(launcher: Launcher, tracer, op_id: int, traced_ops: list[dict]) -> dict:
    """Run the known over-limit count outside the timed loop and report what it does."""
    res, out, err = launcher.run(cli_args(DEFECT_PROBE_ARGV))
    last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
    probe = {"argv": " ".join(DEFECT_PROBE_ARGV), "exit": res["exit"], "stderr": last[0], "stdout_bytes": len(out)}
    if tracer is not None:
        with tracer.installed():
            code, nbytes, counts = tracer.run_op(op_id, list(DEFECT_PROBE_ARGV))
        # Its exceptions are added to the per-layer error counts.
        traced_ops.append(
            {"op": op_id, "round": 0, "case": "defect-probe", "exit": code, "ok": True,
             "bytes": nbytes, "counts": {k: v for k, v in counts.items() if k.endswith("_errors")},
             "untraced_s": res["wall_s"], "span_s": 0.0}
        )
    return probe


def end_to_end(result: dict) -> dict[str, float]:
    ops = result["ops"]
    good = [op for op in ops if op["ok"]]
    charged = [op["wall_s"] if op["ok"] else OP_TIMEOUT_S for op in ops]
    pct, tail_value = tail(charged)
    result["tail_pct"] = pct
    return {
        "ops_per_s": len(good) / sum(op["wall_s"] for op in ops),
        "op_s.p50": statistics.median(charged),
        "op_s.tail": tail_value,
        "peak_rss_mb": max(op["maxrss_kb"] for op in ops) / 1024,
        "setup_s": result["setup_s"],
    }


def metadata(result: dict, seconds: float, trace: bool) -> dict:
    import gapwords

    return {
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "has_compiled_kernel": gapwords.HAS_COMPILED_KERNEL,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "op_timeout_s": OP_TIMEOUT_S,
        "clients": 1,
        "rounds": result["rounds"],
        "cases_per_round": len(result["plan"].cases),
        "ops": len(result["ops"]),
        "setup_samples_s": result["setup_samples"],
        "prep_s": result["prep_s"],
        "elapsed_s": result["elapsed_s"],
    }


def report(result: dict, seconds: float, trace: bool) -> dict:
    """Print the readable report and return the closing JSON object."""
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops) + sum(not t["ok"] for t in result["traced_ops"])
    attempted = len(ops)
    meta = metadata(result, seconds, trace)
    e2e = end_to_end(result)
    meta["tail_percentile"] = result["tail_pct"]
    print(f"gapwords benchmark: workload {result['workload']}, seed {result['seed']}, trace {int(trace)}")
    print("meta " + json.dumps(meta))
    for line in result["problems"]:
        print("FAILED " + line)
    for t in result["traced_ops"]:
        if not t["ok"]:
            print(f"FAILED traced {t['case']}: exit {t['exit']}, {t['bytes']} bytes")
    if result["probe"] is not None:
        p = result["probe"]
        state = "still fails" if p["exit"] != 0 else "now succeeds"
        print(f"known defect (int-to-str digit limit) {state}: gapwords {p['argv']} -> exit {p['exit']} {p['stderr']}")
    print(f"  {'ops_per_s':<14} {e2e['ops_per_s']:.4f} ops/s")
    print(f"  {'op_s.p50':<14} {e2e['op_s.p50']:.4f} s")
    print(f"  {'op_s.tail':<14} {e2e['op_s.tail']:.4f} s  (p{result['tail_pct']:g} of {attempted} ops)")
    print(f"  {'peak_rss_mb':<14} {e2e['peak_rss_mb']:.1f} MB")
    print(f"  {'setup_s':<14} {e2e['setup_s']:.4f} s  (median of {len(result['setup_samples'])} imports)")
    print(f"  {'failed_ratio':<14} {failed / attempted:g}  ({failed}/{attempted} ops)")

    if trace:
        metrics = traced_metrics(result)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_metrics(result: dict) -> dict:
    from tracing import PER_LAYER, layer_metrics, self_time_by_layer

    tracer = result["tracer"]
    timed_ops = [t for t in result["traced_ops"] if t["case"] != "defect-probe"]
    values = layer_metrics(timed_ops, tracer.spans)
    for t in result["traced_ops"]:
        if t["case"] == "defect-probe":
            for key, count in t["counts"].items():
                values[key.replace("_errors", ".errors")] += count
    op_total = sum(t["span_s"] for t in timed_ops)
    untraced_total = sum(t["untraced_s"] for t in timed_ops)
    shares = self_time_by_layer([s for s in tracer.spans if s["op"] in {t["op"] for t in timed_ops}])
    print(f"  traced op time {op_total:.3f} s against {untraced_total:.3f} s untraced: "
          f"{untraced_total - op_total:.3f} s of process start, import and tracing overhead")
    for layer, t in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    self time {layer:<10} {t:8.3f} s  {100 * t / op_total:5.1f}% of traced op time")
    for name, (unit, _, mover) in PER_LAYER.items():
        print(f"  {name:<34} {values[name]:<14.6g} {unit:<6} -> {mover}")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{result['workload']}-seed{result['seed']}.json"
    out.write_text(json.dumps({"ops": result["traced_ops"], "spans": tracer.spans}))
    print(f"  spans written to {out.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gapwords" / "cli.py").is_file():
        print(f"perfbench: no gapwords sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.set_int_max_str_digits(0)  # the references are compared as decimal text
    WORK.mkdir(exist_ok=True)

    launcher = Launcher()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), launcher)
            print(json.dumps(report(result, args.seconds, bool(args.trace))), flush=True)
    finally:
        launcher.close()
        for name in ("stdout", "stderr"):
            (WORK / name).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
