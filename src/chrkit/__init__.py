"""chrkit: multiset constraint-rewriting engines with a verification oracle.

Three interoperable executions of the same rule language (an abstract
rewriting oracle, a sequential goal-based interpreter and a concurrent
goal-based executor) plus a verifier that replays recorded traces and
checks them against the abstract semantics.
"""
from .abstract import (AbstractStore, LimitExceeded, canonical_multiset,
                       final_stores, is_final, rewrite_steps, run_abstract)
from .concurrent import (ConcurrentEngine, EngineConfig, run_concurrent,
                         run_pitfall_variant)
from .sequential import SequentialEngine, run_sequential
from .store import NumberedConstraint, State, Store
from .syntax import (ParseError, Program, Rule, compile_occurrences,
                     load_program, parse_goals, parse_program, pretty_program)
from .terms import (App, Chr, Const, Eq, EvalError, Term, Var, apply_subst,
                    entails, eval_ground, match, mgu)
from .trace import CommitRecord, SideEffect, TraceStep, parse_trace, serialize_trace
from .verify import (Verdict, audit_overlap, check_final, decompose_k, no_ids,
                     project_abstract, replay, verify_run)

__all__ = [name for name in dir() if not name.startswith("_")]
