"""Command-line entry point.

    chrkit PROGRAM.chr --goals "Gcd(3),Gcd(9)" [--engine sequential|concurrent|abstract]
           [--workers N] [--seed S] [--policy fifo|lifo] [--max-steps N]
           [--trace PATH] [--verify] [--oracle] [--repeat N]
           [--check-invariants]

Prints the final store in dump format.  Exit codes: 0 success, 1 usage,
parse or validation error (a malformed option, goal or program text nested
past the depth bound, a flag the mode would ignore, --goals with
--goals-file), unwritable trace file, a concurrent worker thread that could
not be started (the run is stopped first), verification failure or step
limit, 2 internal invariant breach.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .abstract import AbstractStore, LimitExceeded, final_stores, run_abstract
from .concurrent import EngineConfig, WorkerStartError, run_concurrent
from .sequential import InvariantViolation, run_sequential
from .store import DeadIdError
from .syntax import ParseError, load_program, parse_goals
from .terms import render_constraint
from .trace import TraceFormatError, serialize_trace
from .verify import verify_run


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as other errors do
        self.exit(1, f"error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="chrkit", description="Run a constraint-rule program.")
    ap.add_argument("program", help="rule program file (.chr)")
    ap.add_argument("--goals", default=None, help="inline goal list")
    ap.add_argument("--goals-file", default=None, help="goal list file")
    ap.add_argument("--engine", choices=("sequential", "concurrent", "abstract"),
                    default="sequential")
    ap.add_argument("--workers", type=int, default=1)
    try:
        seed = int(os.environ.get("CHR_SEED", "0"))
    except ValueError:
        seed = None  # main reports it, unless --seed is given
    ap.add_argument("--seed", type=int, default=seed,
                    help="default: $CHR_SEED, else 0")
    ap.add_argument("--policy", choices=("fifo", "lifo"), default="fifo")
    ap.add_argument("--max-steps", type=int, default=None)
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write the serialized trace here")
    ap.add_argument("--verify", action="store_true",
                    help="replay, project and audit the trace after the run")
    ap.add_argument("--oracle", action="store_true",
                    help="enumerate all final stores of the abstract semantics")
    ap.add_argument("--repeat", type=int, default=None, metavar="N",
                    help="rerun with seeds seed..seed+N-1 and report the "
                         "distinct final stores")
    ap.add_argument("--check-invariants", action="store_true",
                    help="assert the active-instance invariant after every "
                         "sequential step")
    return ap


def _run_once(program, goals, args, cfg: EngineConfig):
    """One engine run; returns (dump, trace_text, status, verdicts)."""
    if args.engine == "sequential":
        res = run_sequential(goals, program, policy=args.policy,
                             max_steps=args.max_steps,
                             check_invariants=args.check_invariants)
        meta = {"engine": "sequential", "policy": args.policy}
    else:
        res = run_concurrent(goals, program, cfg)
        meta = {"engine": "concurrent", "workers": str(cfg.workers),
                "seed": str(cfg.seed), "policy": "fifo"}
    dump = res.state.store.dump()
    trace_text = serialize_trace(res.trace, meta, res.status, dump)
    verdicts = None
    if args.verify:
        verdicts = verify_run(trace_text, goals, program,
                              concurrent=(args.engine == "concurrent"))
    return dump, trace_text, res.status, verdicts


def _refuse_ignored_flags(args) -> None:
    """A ValueError for flags the mode would silently ignore: the oracle and
    the abstract walk run no goal engine, --repeat writes no trace, only the
    sequential engine checks invariants and has a goal policy, only the
    concurrent one has workers, and the oracle takes no step limit.  Goals
    come from --goals or --goals-file, not both."""
    if args.goals is not None and args.goals_file is not None:
        raise ValueError("--goals-file does not take --goals")
    given = {"--verify": args.verify, "--trace": args.trace is not None,
             "--repeat": args.repeat is not None,
             "--check-invariants": args.check_invariants,
             "--max-steps": args.max_steps is not None,
             "--policy": args.policy != "fifo", "--workers": args.workers != 1}
    walk = ("--verify", "--trace", "--repeat", "--check-invariants",
            "--policy", "--workers")
    if args.oracle:
        mode, ignored = "--oracle", walk + ("--max-steps",)
    elif args.engine == "abstract":
        mode, ignored = "--engine abstract", walk
    elif given["--repeat"] and given["--trace"]:
        mode, ignored = "--repeat", ("--trace",)
    elif args.engine == "concurrent":
        mode, ignored = "--engine concurrent", ("--check-invariants",
                                                "--policy")
    else:
        mode, ignored = "--engine sequential", ("--workers",)
    flags = [flag for flag in ignored if given[flag]]
    if flags:
        raise ValueError(f"{mode} does not take {' or '.join(flags)}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.program, encoding="utf-8") as fh:
            program = load_program(fh.read())
        if args.goals_file is not None:
            with open(args.goals_file, encoding="utf-8") as fh:
                goals = parse_goals(fh.read())
        else:
            goals = parse_goals(args.goals or "")
        if args.seed is None:
            raise ValueError("CHR_SEED must be an integer, not "
                             f"{os.environ['CHR_SEED']!r}")
        cfg = EngineConfig(workers=args.workers, seed=args.seed,
                           max_steps=args.max_steps)
        if args.repeat is not None and args.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if args.max_steps is not None and args.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        _refuse_ignored_flags(args)
    except (ParseError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.engine == "abstract" or args.oracle:
            store = AbstractStore.from_constraints(goals)
            if args.oracle:
                try:
                    finals = final_stores(store, program)
                except LimitExceeded as exc:
                    print(f"error: oracle unavailable: {exc}", file=sys.stderr)
                    return 1
                for k, canon in enumerate(sorted(finals)):
                    print(f"final store {k + 1}:")
                    for line in canon:
                        print(f"  {line}")
                print(f"{len(finals)} final store(s)")
                return 0
            limit = 100_000 if args.max_steps is None else args.max_steps
            final, status = run_abstract(store, program, seed=args.seed,
                                         max_steps=limit)
            for line in sorted(render_constraint(c) for c in final.constraints()):
                print(line)
            return 0 if status == "done" else 1

        if args.repeat:
            seen: dict[str, int] = {}
            status_all = "done"
            for k in range(args.repeat):
                cfg_k = EngineConfig(cfg.workers, args.seed + k, cfg.max_steps)
                dump, _, status, verdicts = _run_once(program, goals, args, cfg_k)
                seen[dump] = seen.get(dump, 0) + 1
                if verdicts and not all(v.passed for v in verdicts):
                    for v in verdicts:
                        print(v, file=sys.stderr)
                    return 1
                if status != "done":
                    status_all = status
            print(f"{len(seen)} distinct final store(s) over {args.repeat} runs:")
            for dump, n in sorted(seen.items()):
                print(f"--- seen {n}x ---")
                print(dump)
            return 0 if status_all == "done" else 1

        dump, trace_text, status, verdicts = _run_once(
            program, goals, args, cfg)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_text)
        if dump:
            print(dump)
        if verdicts is not None:
            for v in verdicts:
                print(v, file=sys.stderr)
            if not all(v.passed for v in verdicts):
                return 1
        if status != "done":
            print(f"status: {status}", file=sys.stderr)
            return 1
        return 0
    except (ParseError, TraceFormatError, OSError, RecursionError,
            WorkerStartError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # OSError: writing --trace
        return 1
    except (InvariantViolation, DeadIdError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
