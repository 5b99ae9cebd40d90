"""Quick checks of the benchmark itself (about half a minute).

    python3 bench/run.py --selfcheck

  - generators are deterministic for a seed and differ across seeds
  - every metric name and unit in BENCHMARK.json and the layer map fits the
    rules
  - self time is right on a toy span tree driven by a fake clock
  - the references reject wrong answers: with a deliberately wrong
    reference every workload reports failures (fail_ratio > 0), and on
    oracle-fuzz some fuzz case fails the oracle membership check
  - the interpreter's switch interval is its default
"""
from __future__ import annotations

import sys

import layers
import spec
import workloads as wl
from tracer import Tracer

DEFAULT_SWITCH_INTERVAL = 0.005


class CheckFailed(Exception):
    pass


def expect(cond, msg="") -> None:
    if not cond:
        raise CheckFailed(msg)


def check_generators() -> None:
    for name, _ in spec.WORKLOADS:
        a, b = wl.make_inputs(name, 7, 3), wl.make_inputs(name, 7, 3)
        expect(a == b, f"{name}: same seed, different inputs")
        expect(wl.setup_texts(a) == wl.setup_texts(b))
        expect(a != wl.make_inputs(name, 8, 3), f"{name}: seed ignored")
        expect(a != wl.make_inputs(name, 7, 4), f"{name}: op index ignored")


def check_names() -> None:
    names = [n for n, _, _ in spec.END_TO_END] + [n for n, _, _ in spec.PER_LAYER]
    names += [n.replace("<Kind>", k) for n in spec.LAYER_MAP for k in layers.KINDS]
    names += [n for n, _ in spec.WORKLOADS]
    for n in names:
        expect(spec.NAME_RE.fullmatch(n), f"bad metric name {n!r}")
    declared = [n for n, _, _ in spec.END_TO_END + spec.PER_LAYER]
    expect(len(declared) == len(set(declared)), "a metric name is used twice")
    for _, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
        expect(spec.UNIT_RE.fullmatch(unit), f"bad unit {unit!r}")
    e2e = {n: (u, b) for n, u, b in spec.END_TO_END}
    expect(e2e["setup_s"] == ("s", max(b for _, b in e2e.values())))
    expect(all(0 < b <= 0.25 for _, b in e2e.values()))
    expect(all(len(why) <= 200 and "\n" not in why for _, why in spec.WORKLOADS))
    expect({n for n, _, _ in spec.PER_LAYER} <= set(spec.LAYER_MAP))
    # a comparison set is 4 + 22 runs per workload within 3420 s; a run
    # takes its seconds plus about 8 s of set-up samples and overrun
    runs = 4 + 22 * len(spec.WORKLOADS)
    expect(runs * (spec.RUN_SECONDS + 8) <= 3420, "a comparison set takes too long")


def check_self_time() -> None:
    """A[0,10] > B[1,4] > counter C[2,3]; A > D[5,7]; A > counter E[8,9].
    Self: A 10-3-2-1 = 4, B 3-1 = 2, C 1, D 2, E 1."""
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.enter("A", True)
    b = tr.enter("B", True)
    c = tr.enter("C", False)
    tr.exit(c)
    tr.exit(b)
    d = tr.enter("D", True)
    tr.exit(d)
    e = tr.enter("E", False)
    tr.exit(e)
    tr.exit(a)
    own = {name: rec[2] for (_p, name, _e), rec in tr.aggregate().items()}
    expect(own == {"A": 4, "B": 2, "C": 1, "D": 2, "E": 1}, own)
    spans = {s[1]: (s[4], s[7]) for s in tr.spans()}  # parent id, inner
    ids = {s[1]: s[0] for s in tr.spans()}
    expect(spans == {"A": (None, 1), "B": (ids["A"], 1), "D": (ids["A"], 0)},
           spans)


def _wrong(check):
    """The same reference fed a perturbed expectation; for oracle
    membership, the final stores without the engine's answer."""
    def wrong(dump, *expected):
        if check is wl.check_member:
            return check(dump, expected[0] - {wl.canonical(dump)})
        if check is wl.check_channel:
            gets, puts = expected
            return check(dump, gets, [p + 1 for p in puts])
        return check(dump, [v * 2 + 1 for v in expected[0]])
    return wrong


def check_references() -> None:
    expect(wl.check_channel("x0=5\nx1=7", ["x0", "x1"], [7, 5]))
    expect(not wl.check_channel("x0=5\nx1=5", ["x0", "x1"], [7, 5]))
    expect(not wl.check_channel("Put(7)#4\nx0=5", ["x0"], [5]))
    expect(wl.check_gcd("Gcd(6)#9", [12, 18]))
    expect(not wl.check_gcd("Gcd(6)#9\nGcd(6)#10", [12, 18]))
    expect(wl.check_merge("Leq(1,3)#2\nMerge(2,1)#5", [3, 1]))
    expect(not wl.check_merge("Leq(3,1)#2\nMerge(2,1)#5", [3, 1]))
    wrong = {k: _wrong(f) for k, f in wl.REFERENCES.items()}
    for name, _ in spec.WORKLOADS:
        ctx = wl.Ctx(references=wrong)
        wl.OPS[name](ctx, wl.make_inputs(name, 1, 0))
        ratio = len(ctx.failures) / ctx.attempted
        expect(ratio > 0, f"{name}: a wrong reference passed")
        if name == "oracle-fuzz":
            expect(any(f.startswith("fuzz-") for f in ctx.failures),
                   "no fuzz case failed a wrong membership check")
        print(f"  {name}: wrong reference gives fail_ratio {ratio:.3f}")


def main() -> int:
    checks = [("generators are deterministic", check_generators),
              ("metric names and units", check_names),
              ("self time on a toy span tree", check_self_time),
              ("references reject wrong answers", check_references)]
    if sys.getswitchinterval() != DEFAULT_SWITCH_INTERVAL:
        print(f"FAIL switch interval is {sys.getswitchinterval()}")
        return 1
    failed = 0
    for title, fn in checks:
        try:
            fn()
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL {title}: {exc}")
        else:
            print(f"PASS {title}")
    return 1 if failed else 0
