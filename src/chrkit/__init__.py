"""chrkit: multiset constraint-rewriting engines with a verification oracle.

Three interoperable executions of the same rule language (an abstract
rewriting oracle, a sequential goal-based interpreter and a concurrent
goal-based executor) plus a verifier that replays recorded traces and
checks them against the abstract semantics.
"""
from .abstract import (AbstractStore, LimitExceeded, final_stores,
                       rewrite_steps, run_abstract)
from .concurrent import ConcurrentEngine, EngineConfig, run_concurrent
from .sequential import SequentialEngine, run_sequential
from .store import NumberedConstraint, State, Store
from .syntax import (ParseError, Program, Rule, load_program, parse_goals,
                     parse_program)
from .terms import (App, Chr, Const, Eq, EvalError, Term, Var, apply_subst,
                    entails, eval_ground, match, mgu)
from .trace import Step, parse_trace, serialize_trace
from .verify import (Verdict, audit_overlap_trace, decompose_k,
                     project_abstract, verify_run)

__all__ = [name for name in dir() if not name.startswith("_")]
