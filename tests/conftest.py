from __future__ import annotations

import sys
from pathlib import Path

import pytest

from chrkit.syntax import load_program, parse_goals

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

# every shipped program with its default test goals
CORPUS = {
    "gcd": "Gcd(3),Gcd(3),Gcd(9)",
    "channel": "Get(m),Put(1),Get(n),Put(8)",
    "mergesort": ",".join(f"Merge(1,{i})" for i in [5, 2, 7, 1, 8, 3, 6, 4]),
    "prop_once": "P,P",
    "opt_join": "A(1,0),B(1),C(0),A(3,2),B(3),C(2)",
    "opt_drop": "A(1),A(0),C(5)",
    "pitfall_pair": "A(1),B(2)",
    "pitfall_split": "A,E,B,D",
    "pitfall_single": "A,B",
}

# programs with at least two rule firings, where overlap analysis can bite
MULTI_FIRING = ("gcd", "channel", "mergesort", "prop_once", "opt_join",
                "opt_drop")


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def overlapping_firing_pairs(trace) -> int:
    """How many pairs of committed rule firings genuinely overlapped in time
    (shows the overlap audit is not vacuous)."""
    firings = [r for r in trace if r.step.kind in ("Simplify", "Propagate")]
    return sum(_overlaps(a.interval, b.interval)
               for i, a in enumerate(firings) for b in firings[i + 1:])


def all_pairs_audit(records) -> tuple[set, bool]:
    """Reference for the sweep audit: every pair of effectful records whose
    intervals overlap, as (smaller seq, larger seq), and whether any such
    pair shares a simplified id with the other's side-effects."""
    effectful = [r for r in records if r[2] or r[3]]
    pairs, violating = set(), False
    for i, (seq1, iv1, p1, s1) in enumerate(effectful):
        for seq2, iv2, p2, s2 in effectful[i + 1:]:
            if not _overlaps(iv1, iv2):
                continue
            pairs.add((min(seq1, seq2), max(seq1, seq2)))
            if set(s1) & set(p2 + s2) or set(s2) & set(p1 + s1):
                violating = True
    return pairs, violating


def program_text(name: str) -> str:
    return (PROGRAMS / f"{name}.chr").read_text()


def load(name: str):
    return load_program(program_text(name))


def goals_for(name: str):
    return parse_goals(CORPUS[name])


@pytest.fixture(scope="session")
def corpus():
    return {name: (load(name), goals_for(name)) for name in CORPUS}


@pytest.fixture(autouse=True, scope="session")
def _fast_thread_switching():
    # frequent preemption widens the schedules the concurrent tests explore
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)
