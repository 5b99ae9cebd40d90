"""chrkit benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run, size sweeps and a self-check.  Standard library only.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is the JSON result
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]
        every workload, each in its own process; prints a table and writes
        bench/results/BENCH_seed<N>.json
    python3 bench/run.py --sweep      growth exponents over size ladders
    python3 bench/run.py --selfcheck  quick checks of the benchmark itself

Run from the repository root; it imports chrkit from ./src and reads
./programs, and exits with code 2 when they are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_OPS = 3
SETUP_SAMPLES = 30  # set-up children per run, spread evenly over the ops
UNTRACED_SHARE = 0.4  # of a traced run's seconds, spent untraced for the baseline
PERCENTILES = (90, 95, 99, 99.9)


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_chrkit() -> None:
    """Make ./src/chrkit the only chrkit this process can import."""
    if not (SRC / "chrkit" / "__init__.py").is_file():
        fail(f"no chrkit sources under {SRC}")
    if not (ROOT / "programs").is_dir():
        fail(f"no programs directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    import chrkit
    if Path(chrkit.__file__).resolve().parent != (SRC / "chrkit").resolve():
        fail(f"imported chrkit from {chrkit.__file__}, not from {SRC}")


# ------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    fit = [p for p in PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
    if not fit:
        return None
    q = statistics.quantiles(samples, n=1000, method="inclusive")
    return f"p{fit[-1]:g}", q[round(fit[-1] * 10) - 1]


def summarize(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    t = tail(samples)
    if t is not None:
        out[t[0]] = t[1]
    return out


def git_revision() -> str:
    """HEAD of ./.git, read directly (never searches parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git": git_revision(), "seed": seed,
            "switchinterval": sys.getswitchinterval()}


# ------------------------------------------------------------------ setup

class SetupSampler:
    """setup_s in fresh interpreters on the first op's inputs, each timed at
    the reference speed (see speed.py).  The first child warms the
    byte-code caches and is not kept; the others are spread over the run
    like the ops."""

    def __init__(self, workload: str, seed: int):
        import workloads as wl
        self.pairs = json.dumps(wl.setup_texts(wl.make_inputs(workload, seed, 0)))
        self.cmd = [sys.executable, "-I", str(BENCH / "setup_child.py"), str(SRC)]
        self.samples: list[float] = []
        self.wall: list[float] = []
        self._child()

    def _child(self) -> tuple[float, float]:
        proc = subprocess.run(self.cmd, input=self.pairs, capture_output=True,
                              text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up child failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        return out["setup_s"], out["wall_s"]

    def catch_up(self, share: float) -> None:
        """Take samples until `share` of SETUP_SAMPLES (and one) are in."""
        while len(self.samples) < min(SETUP_SAMPLES, 1 + SETUP_SAMPLES * share):
            scaled, wall = self._child()
            self.samples.append(scaled)
            self.wall.append(wall)


# ----------------------------------------------------------------- timing

def run_ops(workload: str, seed: int, seconds: float, ctx, first_op: int = 0,
            twins: list | None = None, setup: SetupSampler | None = None,
            scaled: bool = False) -> dict[str, list[float]]:
    """Ops for `seconds` (at least MIN_OPS); per-op phase times, at the
    reference speed if `scaled` (then also "<phase>_wall").  With `twins`,
    also times the same goals on both engines; with `setup`, takes its
    samples between the ops, in time that does not count."""
    import workloads as wl
    from speed import SpeedProbe
    op = wl.OPS[workload]
    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    deadline = start + seconds
    k = first_op
    while k - first_op < MIN_OPS or time.perf_counter() < deadline:
        if setup is not None:
            t0 = time.perf_counter()
            setup.catch_up((t0 - start) / seconds)
            shift = time.perf_counter() - t0
            start += shift
            deadline += shift
        inputs = wl.make_inputs(workload, seed, k)
        if ctx.tracer is not None:
            ctx.tracer.op = k
        before, before_wall = dict(ctx.times), dict(ctx.wall)
        gc.collect()
        if scaled:
            with SpeedProbe() as ctx.probe:
                op(ctx, inputs)
            ctx.probe = None
        else:
            op(ctx, inputs)
        for phase in ("run", "verify", "oracle"):
            samples[phase].append(ctx.times[phase] - before.get(phase, 0.0))
            if scaled:
                samples[phase + "_wall"].append(
                    ctx.wall[phase] - before_wall.get(phase, 0.0))
        if twins is not None:
            gc.collect()
            twins.append(wl.seq_twin(inputs, workload))
        k += 1
    if setup is not None:
        setup.catch_up(1.0)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import spec
    import workloads as wl
    sampler = SetupSampler(workload, seed)
    ctx = wl.Ctx()
    samples = run_ops(workload, seed, seconds, ctx, setup=sampler, scaled=True)
    setup = samples["setup"] = sampler.samples
    samples["setup_wall"] = sampler.wall
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(samples["run"]),
        "verify_s": statistics.median(samples["verify"]),
        "oracle_s": statistics.median(samples["oracle"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {n: u for n, u, _ in spec.END_TO_END}
    detail = {
        "workload": workload, **metadata(seed),
        "ops": len(samples["run"]),
        "attempted": ctx.attempted, "failed": len(ctx.failures),
        "undecided": ctx.undecided,
        "fail_ratio": (len(ctx.failures) + ctx.undecided) / max(ctx.attempted + ctx.undecided, 1),
        "failures": ctx.failures[:10],
        "samples": dict(samples),
        "metrics": {
            "setup_s": summarize(setup),
            "run_s": summarize(samples["run"]),
            "verify_s": summarize(samples["verify"]),
            "oracle_s": summarize(samples["oracle"]),
            "peak_rss_mb": {"median": values["peak_rss_mb"], "n": 1},
            "oracle_case_s": summarize(ctx.oracle_cases),
            "oracle_undecided": {"median": ctx.undecided, "n": 1},
        },
    }
    for name, value in values.items():
        detail["metrics"][name]["unit"] = units[name]
    detail["metrics"]["oracle_case_s"]["unit"] = "s"
    detail["metrics"]["oracle_undecided"]["unit"] = "count"
    result = {"correct": not ctx.failures, "attempted": ctx.attempted,
              "failed": len(ctx.failures),
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n, _, _ in spec.END_TO_END}}
    return result, detail


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import instrument
    import layers
    import spec
    import workloads as wl
    from tracer import Tracer

    base_ctx = wl.Ctx()
    twins: list = []
    base = run_ops(workload, seed, seconds * UNTRACED_SHARE, base_ctx,
                   twins=twins)
    tr = Tracer()
    ctx = wl.Ctx(tracer=tr)
    instrument.install(tr)
    try:
        traced = run_ops(workload, seed, seconds * (1 - UNTRACED_SHARE), ctx,
                         first_op=len(base["run"]))
    finally:
        tr.uninstall()
    n_ops = len(traced["run"])
    metrics = layers.layer_metrics(tr, ctx, n_ops, base_ctx, base, traced, twins)
    attribution = layers.attribution(tr, ctx)
    checks = layers.mechanism_checks(workload, attribution)
    RESULTS.mkdir(exist_ok=True)
    tr.write_spans(str(RESULTS / f"spans-{workload}-seed{seed}.jsonl"))
    units = {n: u for n, u, _ in spec.PER_LAYER}
    failures = base_ctx.failures + ctx.failures
    attempted = base_ctx.attempted + ctx.attempted
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]}
                          for n, _, _ in spec.PER_LAYER}}
    detail = {"workload": workload, **metadata(seed), "traced_ops": n_ops,
              "untraced_ops": len(base["run"]), "layers": metrics,
              "attribution": attribution, "mechanism_checks": checks,
              "failures": failures[:10]}
    return result, detail


def one_workload(args) -> int:
    import workloads as wl
    if args.workload not in wl.OPS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.OPS)}")
    if args.workload in wl.ONE_CORE:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        result, detail = traced_run(args.workload, args.seed, args.seconds)
        for name, value in sorted(detail["layers"].items()):
            print(f"layer {args.workload} {name} {value:.6g}")
        for phase, rows in detail["attribution"].items():
            for label, share in rows[:5]:
                print(f"self-share {args.workload} {phase} {label} {share:.3f}")
        for check in detail["mechanism_checks"]:
            print(f"mechanism {args.workload}: {check}")
    else:
        result, detail = untraced_run(args.workload, args.seed, args.seconds)
        for name, m in detail["metrics"].items():
            extra = " ".join(f"{k}={v:.6g}" for k, v in m.items()
                             if k not in ("median", "n", "unit"))
            print(f"metric {args.workload} {name} {m['median']:.6g} {m['unit']} "
                  f"n={m['n']} {extra}".rstrip())
        print(f"fail_ratio {args.workload} {detail['fail_ratio']:.6g} "
              f"(failed {detail['failed']}, undecided {detail['undecided']}, "
              f"attempted {detail['attempted']})")
    for f in detail["failures"]:
        print(f"FAILURE {f}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ all at once

def all_workloads(args) -> int:
    import spec
    report = {"meta": metadata(args.seed),
              "seconds": args.seconds, "workloads": {}}
    width = 13
    print(f"{'workload':<{width}} {'metric':<13} {'median':>12} {'unit':<6} "
          f"{'n':>4}  tail")
    ok = True
    for name, _why in spec.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
        report["workloads"][name] = {"result": result, "detail": detail}
        ok = ok and result["correct"]
        if args.trace:
            for layer, value in sorted(detail["layers"].items()):
                print(f"{name:<{width}} {layer:<40} {value:.6g}")
            for check in detail["mechanism_checks"]:
                print(f"{name:<{width}} {check}")
            continue
        for metric, m in detail["metrics"].items():
            tails = " ".join(f"{k}={v:.4g}" for k, v in m.items()
                             if k not in ("median", "n", "unit"))
            print(f"{name:<{width}} {metric:<13} {m['median']:>12.6g} "
                  f"{m['unit']:<6} {m['n']:>4}  {tails}")
        print(f"{name:<{width}} {'fail_ratio':<13} {detail['fail_ratio']:>12.6g} "
              f"{'share':<6} {detail['attempted'] + detail['undecided']:>4}  "
              f"failed={detail['failed']} undecided={detail['undecided']}")
    report["layer_map"] = spec.LAYER_MAP
    report["why"] = dict(spec.WORKLOADS)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_seed{args.seed}{'_traced' if args.trace else ''}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--sweep", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    import spec
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    import_chrkit()
    if args.selfcheck:
        import selfcheck
        return selfcheck.main()
    if args.sweep:
        import sweep
        return sweep.main(args.seed, RESULTS)
    if args.workload:
        return one_workload(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
