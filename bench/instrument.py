"""Which chrkit functions the traced run wraps, and under which layer name.

Each function is patched at every module attribute its callers look up
(see tracer.py); `Tracer.uninstall()` restores the originals.
"""
from __future__ import annotations

import chrkit.abstract as abstract
import chrkit.concurrent as concurrent
import chrkit.matching as matching
import chrkit.sequential as sequential
import chrkit.store as store
import chrkit.syntax as syntax
import chrkit.terms as terms
import chrkit.trace as trace
import chrkit.verify as verify

from tracer import Tracer


def _commit_done(tr: Tracer, _args, tick) -> None:
    tr.count("concurrent.commits_ok" if tick is not None
             else "concurrent.aborts_stale")


def _commit_raised(tr: Tracer, exc: BaseException) -> None:
    if isinstance(exc, concurrent._TickConflict):
        tr.count("concurrent.aborts_tick")


def install(tr: Tracer) -> None:
    def counter(owner, attr, name, **kw):
        tr.patch(owner, attr, tr.wrap(getattr(owner, attr), name, span=False, **kw))

    def span(owner, attr, name, **kw):
        tr.patch(owner, attr, tr.wrap(getattr(owner, attr), name, span=True, **kw))

    # terms: counts and time only, no span per call
    for mod in (terms, store, verify, abstract):
        counter(mod, "mgu", "terms.mgu")
    for mod in (matching, verify, abstract):
        counter(mod, "entails", "terms.entails")
    for mod in (matching, abstract):
        counter(mod, "match", "terms.match")

    span(syntax, "load_program", "syntax.load_program")
    span(syntax, "parse_goals", "syntax.parse_goals")

    span(store.Store, "add_equation", "store.add_equation",
         on_result=lambda t, a, woken: t.count("store.woken_total", len(woken)))
    counter(store.Store, "candidates", "store.candidates",
            on_result=lambda t, a, found: t.count("store.candidates_len", len(found)))
    # Store.candidates renders a key only when it takes the argument index
    # rather than scanning the predicate bucket
    tr.patch(store, "render_term", tr.wrap_tally(
        store.render_term, "store.candidates_indexed", inside="store.candidates"))
    counter(store.Store, "insert", "store.insert")

    for mod in (sequential, concurrent):
        tr.patch(mod, "iter_matches", tr.wrap_generator(
            mod.iter_matches, "matching.iter_matches",
            on_item=lambda t, m: t.count("matching.matches_yielded")))

    span(sequential.SequentialEngine, "execute_goal", "sequential.execute_goal")
    span(sequential.SequentialEngine, "step_solve", "sequential.step_solve")
    span(concurrent.ConcurrentEngine, "commit_firing", "concurrent.commit_firing",
         on_result=_commit_done, on_error=_commit_raised)

    span(trace, "serialize_trace", "trace.serialize")
    span(verify, "parse_trace", "trace.parse")

    span(verify, "verify_run", "verify.verify_run")
    span(verify, "_run_replay", "verify.replay")
    span(verify, "project_abstract", "verify.project_abstract")
    span(verify, "check_final_from_replay", "verify.check_final")
    span(verify, "audit_overlap_trace", "verify.audit_overlap")
    counter(verify, "decompose_k", "verify.decompose_k",
            on_result=lambda t, a, r: t.count("verify.audit_pairs", len(r[0])))
    span(verify, "validate_rewrite", "abstract.validate_rewrite")
    span(verify, "rewrite_steps", "abstract.rewrite_steps")

    span(abstract, "final_stores", "abstract.final_stores")
    span(abstract, "rewrite_steps", "abstract.rewrite_steps",
         on_result=lambda t, a, steps: t.count("abstract.successors", len(steps)))
