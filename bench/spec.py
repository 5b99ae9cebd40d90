"""What the benchmark measures.

`BENCHMARK.json` at the repository root is the one source of the workloads,
the metrics, their units and bounds; this file reads it and adds the layer
map and the name rules.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))

RUN_SECONDS: int = _SPEC["run_seconds"]
WORKLOADS = [(w["name"], w["why"]) for w in _SPEC["workloads"]]
# (name, unit, bound): every one is lower-is-better and reported per workload
END_TO_END = [(m["name"], m["unit"], m["bound"]) for m in _SPEC["end_to_end"]]
# the traced run's metrics in the result line; `--trace 1` prints the full
# set of LAYER_MAP
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]]

# layer metric -> (end-to-end metric it should move, workloads where it
# should move it); on the other workloads the prediction is no change
LAYER_MAP = {
    "syntax.load_program_s": ("setup_s", "all"),
    "syntax.parse_goals_s": ("setup_s", "all"),
    "terms.mgu_calls": ("run_s, verify_s", "channel-eq"),
    "terms.mgu_s": ("run_s, verify_s", "channel-eq"),
    "terms.entails_calls": ("run_s, verify_s", "channel-eq"),
    "terms.match_calls": ("run_s, verify_s", "channel-eq"),
    "store.add_equation_calls": ("run_s", "channel-eq"),
    "store.add_equation_s": ("run_s", "channel-eq"),
    "store.woken_total": ("run_s", "channel-eq"),
    "store.candidates_calls": ("run_s", "merge-seq, channel-eq"),
    "store.candidates_s": ("run_s", "merge-seq, channel-eq"),
    "store.candidates_len_mean": ("run_s", "merge-seq, channel-eq"),
    "store.candidates_index_share": ("run_s", "merge-seq, channel-eq"),
    "store.entries_total": ("peak_rss_mb", "gcd-con2"),
    "store.live_final": ("peak_rss_mb", "gcd-con2"),
    "store.tombstone_ratio": ("peak_rss_mb", "gcd-con2"),
    "matching.iter_matches_calls": ("run_s", "merge-seq, gcd-con2"),
    "matching.iter_matches_s": ("run_s", "merge-seq, gcd-con2"),
    "matching.matches_yielded": ("run_s", "merge-seq, gcd-con2"),
    "matching.fire_ratio": ("run_s", "merge-seq, gcd-con2"),
    "sequential.steps": ("run_s", "merge-seq, channel-eq"),
    "sequential.steps.<Kind>": ("run_s", "merge-seq, channel-eq"),
    "sequential.steps_per_s": ("run_s", "merge-seq, channel-eq"),
    "sequential.execute_goal_s": ("run_s", "merge-seq, channel-eq"),
    "sequential.step_solve_s": ("run_s", "merge-seq, channel-eq"),
    "concurrent.steps_per_s": ("run_s", "gcd-con2"),
    "concurrent.commit_attempts": ("run_s", "gcd-con2"),
    "concurrent.commits_ok": ("run_s", "gcd-con2"),
    "concurrent.aborts_stale": ("run_s", "gcd-con2"),
    "concurrent.aborts_tick": ("run_s", "gcd-con2"),
    "concurrent.commit_ok_ratio": ("run_s", "gcd-con2"),
    "concurrent.commit_s": ("run_s", "gcd-con2"),
    "concurrent.overhead_vs_seq": ("run_s", "gcd-con2"),
    "trace.serialize_s": ("verify_s", "gcd-con2, merge-seq"),
    "trace.parse_s": ("verify_s", "gcd-con2, merge-seq"),
    "trace.bytes": ("verify_s", "gcd-con2, merge-seq"),
    "trace.steps": ("verify_s", "gcd-con2, merge-seq"),
    "verify.replay_s": ("verify_s", "all engine workloads"),
    "verify.project_abstract_s": ("verify_s", "merge-seq"),
    "verify.check_final_s": ("verify_s", "all engine workloads"),
    "verify.audit_overlap_s": ("verify_s", "gcd-con2"),
    "verify.audit_pairs": ("verify_s", "gcd-con2"),
    "verify.to_run_ratio": ("verify_s", "all engine workloads"),
    "abstract.final_stores_s": ("oracle_s", "oracle-fuzz"),
    "abstract.rewrite_steps_calls": ("oracle_s", "oracle-fuzz"),
    "abstract.rewrite_steps_s": ("oracle_s", "oracle-fuzz"),
    "abstract.successors": ("oracle_s", "oracle-fuzz"),
    "abstract.dup_share": ("oracle_s", "oracle-fuzz"),
    "abstract.limit_exceeded": ("oracle_s, fail_ratio", "oracle-fuzz"),
    "abstract.validate_rewrite_s": ("verify_s", "merge-seq"),
    "bench.tracing_overhead": ("(none: traced run_s / untraced run_s)", "all"),
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
