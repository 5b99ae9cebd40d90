"""The render-based firing check that `verify.validate_rewrite` replaced,
kept as the reference its term-based successor is tested against.

Each head pattern is instantiated under phi, then under theta, rendered,
and the sorted texts of each role are compared with the sorted texts of
the recorded heads' forms under theta.  The phi-keys check, the order of
the checks and the messages are the ones `validate_rewrite` keeps.
"""
from __future__ import annotations

from typing import Optional

from chrkit.syntax import Rule
from chrkit.terms import (Constraint, Subst, apply_subst, holds, instantiate,
                          render_constraint)


def solved_form(theta: Optional[Subst], c: Constraint) -> str:
    """The rendered form of c under theta that the reference compares."""
    return render_constraint(instantiate(theta or {}, c))


def reference_validate_rewrite(rule: Rule, phi: Subst, theta: Optional[Subst],
                               prop_forms: list[str],
                               simp_forms: list[str]) -> Optional[str]:
    """Why firing `rule` at `phi` on heads with the given forms under theta
    (None: inconsistent equations) is not a single rewrite, or None."""
    if phi.keys() != rule.head_vars:
        return (f"phi binds {{{','.join(sorted(phi))}}}, not the head variables "
                f"{{{','.join(sorted(rule.head_vars))}}} of rule {rule.name}")
    for role, patterns, forms in (("propagated", rule.propagated, prop_forms),
                                  ("simplified", rule.simplified, simp_forms)):
        if (sorted(solved_form(theta, apply_subst(phi, h)) for h in patterns)
                != sorted(forms)):
            return f"{role} heads do not match rule {rule.name}"
    if theta is None or not holds(theta, phi, rule.guard):
        return f"guard of rule {rule.name} not entailed"
    return None
