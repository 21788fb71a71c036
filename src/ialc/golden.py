"""The roots of the five axiom derivations.

Each root is a modal axiom schema instantiated with atoms A, B and role
R; roots 1 and 2 use no nominals, roots 3..5 are hybrid assertions.
``ialc axioms`` writes the search's proof of each root.  The
hand-written derivations are the committed ``golden/axiom*.prf``.
"""

__all__ = ["AXIOM_ROOTS"]

AXIOM_ROOTS = {
    1: "all R.(A -> B) |- some R.A -> some R.B",
    2: "all R.(A -> B) |- all R.A -> all R.B",
    3: "|- x : (some R.bot -> bot)",
    4: "x : some R.(A | B) |- x : (some R.A | some R.B)",
    5: "|- x : ((some R.A -> all R.B) -> all R.(A -> B))",
}
