"""Per-layer metrics and self-time attribution from a traced run.

Counts and times are per op (traced totals divided by the number of traced
ops).  Rates and ratios that compare with untraced execution use the
untraced ops that precede the traced ones in the same run.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

KINDS = ("Activate", "Solve", "Simplify", "Propagate", "Drop")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, ctx, n_ops: int, base_ctx, base: dict, traced: dict,
                  twins: list) -> dict[str, float]:
    agg = tr.aggregate()
    counts = tr.counts()
    calls: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for (phase, name, enclosing), (n, tot, _own) in agg.items():
        calls[name] += n
        total[name] += tot
    st, bst = ctx.stats, base_ctx.stats
    per = lambda x: x / n_ops  # noqa: E731
    m: dict[str, float] = {}

    m["syntax.load_program_s"] = per(total["syntax.load_program"])
    m["syntax.parse_goals_s"] = per(total["syntax.parse_goals"])
    for name in ("mgu", "entails", "match"):
        m[f"terms.{name}_calls"] = per(calls[f"terms.{name}"])
    m["terms.mgu_s"] = per(total["terms.mgu"])

    m["store.add_equation_calls"] = per(calls["store.add_equation"])
    m["store.add_equation_s"] = per(total["store.add_equation"])
    m["store.woken_total"] = per(counts["store.woken_total"])
    m["store.candidates_calls"] = per(calls["store.candidates"])
    m["store.candidates_s"] = per(total["store.candidates"])
    m["store.candidates_len_mean"] = _div(counts["store.candidates_len"],
                                          calls["store.candidates"])
    m["store.candidates_index_share"] = _div(counts["store.candidates_indexed"],
                                             calls["store.candidates"])
    m["store.entries_total"] = per(calls["store.insert"])
    m["store.live_final"] = per(st["store.live_final"])
    m["store.tombstone_ratio"] = 1 - _div(st["store.live_final"],
                                          calls["store.insert"])

    m["matching.iter_matches_calls"] = per(counts["matching.iter_matches.calls"])
    m["matching.iter_matches_s"] = per(total["matching.iter_matches"])
    m["matching.matches_yielded"] = per(counts["matching.matches_yielded"])
    m["matching.fire_ratio"] = _div(st["firings"],
                                    counts["matching.matches_yielded"])

    m["sequential.steps"] = per(st["sequential.steps"])
    for kind in KINDS:
        m[f"sequential.steps.{kind}"] = per(st[f"sequential.steps.{kind}"])
    m["sequential.steps_per_s"] = _div(bst["sequential.steps"],
                                       bst["sequential.run_s"])
    m["sequential.execute_goal_s"] = per(total["sequential.execute_goal"])
    m["sequential.step_solve_s"] = per(total["sequential.step_solve"])

    ok, stale = counts["concurrent.commits_ok"], counts["concurrent.aborts_stale"]
    tick = counts["concurrent.aborts_tick"]
    m["concurrent.steps_per_s"] = _div(bst["concurrent.steps"],
                                       bst["concurrent.run_s"])
    m["concurrent.commit_attempts"] = per(calls["concurrent.commit_firing"])
    m["concurrent.commits_ok"] = per(ok)
    m["concurrent.aborts_stale"] = per(stale)
    m["concurrent.aborts_tick"] = per(tick)
    m["concurrent.commit_ok_ratio"] = _div(ok, calls["concurrent.commit_firing"])
    m["concurrent.commit_s"] = per(total["concurrent.commit_firing"])
    if twins:
        m["concurrent.overhead_vs_seq"] = _div(
            statistics.median(c for c, _ in twins),
            statistics.median(s for _, s in twins))

    m["trace.serialize_s"] = per(total["trace.serialize"])
    m["trace.parse_s"] = per(total["trace.parse"])
    m["trace.bytes"] = per(st["trace.bytes"])
    m["trace.steps"] = per(st["trace.steps"])

    m["verify.replay_s"] = per(total["verify.replay"])
    m["verify.project_abstract_s"] = per(total["verify.project_abstract"])
    m["verify.check_final_s"] = per(total["verify.check_final"])
    m["verify.audit_overlap_s"] = per(total["verify.audit_overlap"])
    m["verify.audit_pairs"] = per(counts["verify.audit_pairs"])
    m["verify.to_run_ratio"] = _div(statistics.median(base["verify"]),
                                    statistics.median(base["run"]))

    oracle_rewrites = sum(n for (phase, name, enc), (n, _, _) in agg.items()
                          if name == "abstract.rewrite_steps"
                          and enc == "abstract.final_stores")
    m["abstract.final_stores_s"] = per(total["abstract.final_stores"])
    m["abstract.rewrite_steps_calls"] = per(calls["abstract.rewrite_steps"])
    m["abstract.rewrite_steps_s"] = per(total["abstract.rewrite_steps"])
    m["abstract.successors"] = per(counts["abstract.successors"])
    # every state pushed is popped and expanded once, the start state included
    m["abstract.dup_share"] = 1 - _div(
        oracle_rewrites - calls["abstract.final_stores"],
        counts["abstract.successors"])
    m["abstract.limit_exceeded"] = per(st["abstract.limit_exceeded"])
    m["abstract.validate_rewrite_s"] = per(total["abstract.validate_rewrite"])

    m["bench.tracing_overhead"] = _div(statistics.median(traced["run"]),
                                       statistics.median(base["run"]))
    return m


def attribution(tr, ctx) -> dict[str, list[tuple[str, float]]]:
    """Per phase: layers ranked by self time as a share of the phase's wall
    time.  A span counts under its own name; a counter call counts as
    `name<enclosing span`, e.g. `terms.mgu<store.add_equation`.  Worker
    threads' time is summed, so shares in a concurrent phase can add up to
    more than 1."""
    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    agg = tr.aggregate()
    span_names = {s[1] for s in tr.spans()}
    for (phase, name, enclosing), (_n, _tot, self_t) in agg.items():
        if name.startswith("bench."):
            continue
        label = name if name in span_names else f"{name}<{enclosing}"
        own[phase][label] += self_t
    out = {}
    for phase in ("run", "verify", "oracle"):
        wall = ctx.times.get(phase, 0.0)
        rows = sorted(((label, _div(t, wall)) for label, t in own[phase].items()),
                      key=lambda r: -r[1])
        out[phase] = rows
    out["inclusive"] = _inclusive_shares(agg, ctx)
    return out


def _inclusive_shares(agg, ctx) -> list[tuple[str, float]]:
    """Inclusive time of a few layers as a share of their phase."""
    picks = (("oracle", "abstract.rewrite_steps"),
             ("verify", "verify.audit_overlap"),
             ("verify", "verify.project_abstract"),
             ("run", "store.add_equation"))
    rows = []
    for phase, name in picks:
        tot = sum(t for (p, n, _e), (_c, t, _s) in agg.items()
                  if p == phase and n == name)
        rows.append((f"{phase}:{name}", _div(tot, ctx.times.get(phase, 0.0))))
    return rows


def mechanism_checks(workload: str, attr: dict) -> list[str]:
    """Whether the trace shows the mechanism each workload was built for."""
    def top(phase):
        rows = attr.get(phase) or [("-", 0.0)]
        return rows[0]

    def share(phase, label):
        return dict(attr.get(phase, ())).get(label, 0.0)

    inclusive = dict(attr["inclusive"])
    out = []
    if workload == "channel-eq":
        label, s = top("run")
        want = "terms.mgu<store.add_equation"
        out.append(f"{'PASS' if label == want else 'FAIL'} largest self-time "
                   f"share of run_s: {label} {s:.2f} (want {want}, "
                   f"{share('run', want):.2f})")
    elif workload == "merge-seq":
        label, s = top("verify")
        want = "verify.project_abstract"
        out.append(f"{'PASS' if label == want else 'FAIL'} largest self-time "
                   f"share of verify_s: {label} {s:.2f} (want {want})")
    elif workload == "gcd-con2":
        s = inclusive["verify:verify.audit_overlap"]
        out.append(f"{'PASS' if s >= 0.25 else 'FAIL'} verify.audit_overlap is "
                   f"{s:.2f} of verify_s (major: at least 0.25)")
    elif workload == "oracle-fuzz":
        s = inclusive["oracle:abstract.rewrite_steps"]
        out.append(f"{'PASS' if s >= 0.5 else 'FAIL'} abstract.rewrite_steps "
                   f"is {s:.2f} of oracle_s (dominates: at least 0.5)")
    return out
