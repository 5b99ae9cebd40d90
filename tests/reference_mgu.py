"""The rewrite-every-binding unifier that `terms.mgu` replaced, kept as the
reference its triangular successor is tested against.

Each new binding x -> t is applied to every earlier binding before it is
added, so the substitution is idempotent at every step and a list of n
equations costs O(n^2).  The work list, the orientation (the left side
wins, after substitution) and the occurs check are the ones `mgu` keeps.
"""
from __future__ import annotations

from typing import Iterable, Optional

from chrkit.terms import App, Eq, Subst, Term, Var, apply_subst, vars_of


def _bind(x: str, t: Term, out: Subst) -> bool:
    if isinstance(t, Var) and t.name == x:
        return True
    if x in vars_of(t):  # occurs check
        return False
    one = {x: t}
    for k in list(out):
        out[k] = apply_subst(one, out[k])
    out[x] = t
    return True


def reference_mgu(eqs: Iterable[Eq]) -> Optional[Subst]:
    work = [(e.lhs, e.rhs) for e in eqs]
    out: Subst = {}
    while work:
        l, r = work.pop()
        l = apply_subst(out, l)
        r = apply_subst(out, r)
        if l == r:
            continue
        if isinstance(l, Var):
            if not _bind(l.name, r, out):
                return None
        elif isinstance(r, Var):
            if not _bind(r.name, l, out):
                return None
        elif isinstance(l, App) and isinstance(r, App):
            if l.fn != r.fn or len(l.args) != len(r.args):
                return None
            work.extend(zip(l.args, r.args))
        else:
            return None  # clash: unequal constants, or constant vs application
    return out
