"""Recursive construction of a monic polynomial with prescribed right roots.

Starting from x - x_1, each further root x_m is folded in by evaluating
the current polynomial R at x_m.  If the value h = R(x_m) is invertible,
prepending the factor (x - h*x_m*h**-1) makes x_m a root of the product
while keeping the old roots (they already annihilate the right factor).
If h = 0 the root is already absorbed; padding with a left factor x
restores the exact degree when requested.  Over a division ring those two
cases are exhaustive, so the construction always succeeds there; over a
matrix ring a nonzero singular h obstructs the recursion and the trace
records where.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .polynomials import Polynomial
from .rings import Ring, infer_ring

BRANCH_CONJUGATE = "conjugate"
BRANCH_ALREADY_ROOT = "already_root"
BRANCH_PAD_WITH_X = "pad_with_x"
BRANCH_FAILED = "failed"


@dataclass(frozen=True)
class ConstructionStep:
    """One step of the recursion.

    `index` is the position (0-based) of the root being folded in;
    `evaluation_value` is the current polynomial evaluated at that root;
    `conjugated_root` is present exactly on the conjugate branch.
    """

    index: int
    evaluation_value: object
    branch: str
    conjugated_root: object = None


@dataclass(frozen=True)
class ConstructionTrace:
    ring: Ring
    steps: tuple[ConstructionStep, ...]
    result: Polynomial | None

    @property
    def succeeded(self) -> bool:
        return self.result is not None

    @property
    def failed_step(self) -> ConstructionStep | None:
        for step in self.steps:
            if step.branch == BRANCH_FAILED:
                return step
        return None

    def to_json(self) -> dict:
        enc = self.ring.element_to_json
        return {
            "steps": [
                {
                    "index": s.index,
                    "evaluation_value": enc(s.evaluation_value),
                    "branch": s.branch,
                    "conjugated_root": (
                        enc(s.conjugated_root) if s.conjugated_root is not None else None
                    ),
                }
                for s in self.steps
            ],
            "result": self.result.to_json() if self.result is not None else None,
        }


def conjugate_shift(d, h):
    """Return h * d * h**-1 for invertible h, in the ring of d.

    When the returned element is a root of a left factor L, d itself is a
    root of the product L*Q with h = Q(d); this is what transports each
    new root through the factors already constructed.
    """
    hinv = infer_ring(d).invert(h)
    if hinv is None:
        raise DomainError("conjugation needs an invertible element")
    return h * d * hinv


def construct_with_roots(roots, exact_degree: bool = False) -> ConstructionTrace:
    """Build a monic polynomial annihilating every element of `roots`.

    The ring is that of the first root.  Roots are folded in left to
    right, in input order.  The result has degree at most len(roots),
    exactly len(roots) when `exact_degree`.  A nonzero, non-invertible
    evaluation value ends the construction with a failed step and result
    None (possible over matrix rings only).
    """
    roots = list(roots)
    if not roots:
        raise DomainError("at least one root is required")
    ring = infer_ring(roots[0])

    poly = Polynomial.x_minus(ring, roots[0])
    steps = []
    for index in range(1, len(roots)):
        root = roots[index]
        h = poly.evaluate(root)
        if not h:
            if exact_degree:
                poly = Polynomial.x(ring) * poly
                steps.append(ConstructionStep(index, h, BRANCH_PAD_WITH_X))
            else:
                steps.append(ConstructionStep(index, h, BRANCH_ALREADY_ROOT))
            continue
        hinv = ring.invert(h)
        if hinv is None:
            steps.append(ConstructionStep(index, h, BRANCH_FAILED))
            return ConstructionTrace(ring, tuple(steps), None)
        shifted = h * root * hinv
        steps.append(ConstructionStep(index, h, BRANCH_CONJUGATE, shifted))
        poly = Polynomial.x_minus(ring, shifted) * poly

    return ConstructionTrace(ring, tuple(steps), _assert_annihilates(poly, roots))


def verify_roots(p: Polynomial, roots) -> tuple:
    """Evaluate p at each candidate root; all-zero means all are roots.
    A candidate outside p's ring raises MismatchError."""
    return tuple(p.evaluate(r) for r in roots)


def _assert_annihilates(poly: Polynomial, roots) -> Polynomial:
    """The referee every constructed polynomial passes before it leaves
    the package: poly itself when it vanishes at each of `roots`, and
    RuntimeError otherwise, since that can only be a bug."""
    if any(verify_roots(poly, roots)):
        raise RuntimeError("internal error: a constructed polynomial does not annihilate its roots")
    return poly
