"""Shared fixtures: the regression pairs, seeded random generators, the
Hypothesis element strategies and the CLI runner."""

import io
import json
from fractions import Fraction

from ringroots import (
    BRANCH_ALREADY_ROOT,
    BRANCH_CONJUGATE,
    BRANCH_FAILED,
    BRANCH_PAD_WITH_X,
    ConstructionStep,
    ConstructionTrace,
    CriterionReport,
    Matrix,
    MatrixRing,
    Polynomial,
    PrimeField,
    PrimeFieldElement,
    Quaternion,
    QuaternionRing,
    RationalField,
    Ring,
    ScalarRing,
    infer_ring,
)
from ringroots.cli import main
from ringroots.linalg import _fraction_free_rref

try:
    from hypothesis import strategies as st
except ImportError:
    st = None

QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)

RAT = ScalarRing(QQ)
M2Q = MatrixRing(2, QQ)
M3Q = MatrixRing(3, QQ)
M2F2 = MatrixRing(2, F2)
HH = QuaternionRing()

QI = Quaternion(0, 1)
QJ = Quaternion(0, 0, 1)
QK = Quaternion(0, 0, 0, 1)


def run_cli(monkeypatch, capsys, argv, document=None, text=None):
    """(exit code, stdout, stderr) of `ringroots argv` in process, `document` or `text` on stdin."""
    if document is not None:
        text = json.dumps(document)
    monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def nilpotent_shift_pair():
    """Two strictly upper-triangular 2x2 matrices with a singular
    difference; both square to zero, so x^2 annihilates them."""
    return M2Q.element([[0, 1], [0, 0]]), M2Q.element([[0, 2], [0, 0]])


def involution_pair():
    """The identity and the swap matrix: nonsingular, equal squares,
    singular difference."""
    return M2Q.element([[1, 0], [0, 1]]), M2Q.element([[0, 1], [1, 0]])


def rank_gap_pair():
    """A pair with no quadratic annihilator (stacked rank exceeds the
    difference rank) that still admits a cubic one."""
    return M2Q.element([[0, 0], [1, -1]]), M2Q.element([[0, 0], [0, 1]])


def rank_gap_cubic_coefficient():
    """A published alternative a1 for the rank-gap pair's cubic."""
    return M2Q.element([[1, 0], [-1, -1]])


def zero_column_pair():
    """3x3 pair whose first power differences have a zero first column
    while the cube difference does not: no cubic annihilator."""
    x1 = M3Q.element([[1, -1, 0], [-1, 1, 0], [1, 0, 0]])
    x2 = M3Q.element([[1, 1, 2], [-1, 1, 0], [1, 0, 0]])
    return x1, x2


BIG = 10**39 + 7  # 40 digits

# Zero, small and negative integers, small denominators that share
# factors, pairwise coprime denominators, and 40-digit numerators over 1, 3
# and a 40-digit denominator.
if st is None:  # the property modules skip themselves without Hypothesis
    RATIONALS = None
else:
    RATIONALS = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9)),
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from([2, 3, 4, 6])),
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from([7, 11, 13])),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.sampled_from([1, 3, BIG])),
    )


def elements(ring):
    """The Hypothesis strategy for elements of `ring`: quaternion and
    rational entries from RATIONALS, F_p entries as residues 0..p-1."""
    if ring == HH:
        return st.builds(Quaternion, RATIONALS, RATIONALS, RATIONALS, RATIONALS)
    scalars = RATIONALS if ring.field == QQ else st.integers(0, ring.field.p - 1)
    if isinstance(ring, ScalarRing):
        return scalars.map(ring.element)
    row = st.lists(scalars, min_size=ring.k, max_size=ring.k)
    grid = st.lists(row, min_size=ring.k, max_size=ring.k)
    return grid.map(lambda rows: Matrix.from_rows(ring.field, rows))


def rand_fraction(rng, span=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_quaternion(rng, span=6, max_den=4) -> Quaternion:
    return Quaternion(*(rand_fraction(rng, span, max_den) for _ in range(4)))


def rand_fp(rng, field: PrimeField) -> PrimeFieldElement:
    return PrimeFieldElement(rng.randrange(field.p), field.p)


def rand_matrix(rng, field, nrows, ncols=None, span=4) -> Matrix:
    ncols = nrows if ncols is None else ncols
    if isinstance(field, PrimeField):
        rows = [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[rand_fraction(rng, span, 2) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows)


def rand_element(rng, ring):
    if ring == HH:
        return rand_quaternion(rng)
    if isinstance(ring, MatrixRing):
        return rand_matrix(rng, ring.field, ring.k)
    if isinstance(ring, ScalarRing):
        if isinstance(ring.field, PrimeField):
            return rand_fp(rng, ring.field)
        return rand_fraction(rng)
    raise AssertionError(f"no generator for {ring!r}")


def rand_polynomial(rng, ring, max_degree=3, nonzero=True) -> Polynomial:
    degree = rng.randint(0, max_degree)
    coeffs = [rand_element(rng, ring) for _ in range(degree + 1)]
    p = Polynomial(ring, coeffs)
    while nonzero and p.is_zero():
        p = Polynomial(ring, [rand_element(rng, ring) for _ in range(degree + 1)])
    return p


def reference_rref(m: Matrix):
    """(rows, rank, pivot columns) by element-wise Gauss-Jordan on field
    elements: the elimination the package used before its field-owned
    integer kernel, kept as the reference that kernel must reproduce."""
    field = m.field
    work = [list(row) for row in m.entries]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        hit = None
        for r in range(pivot_row, nrows):
            if work[r][col]:
                hit = r
                break
        if hit is None:
            continue
        if hit != pivot_row:
            work[pivot_row], work[hit] = work[hit], work[pivot_row]
        inv = field.invert(work[pivot_row][col])
        work[pivot_row] = [e * inv for e in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return tuple(map(tuple, work)), len(pivots), tuple(pivots)


def assert_kernel_matches_reference(m: Matrix):
    """Run the package's one elimination, `_fraction_free_rref`, on m's int
    rows and check it against `reference_rref`: the same pivot columns,
    each pivot row over its pivot equal to the reference's reduced row,
    and zero rows below the rank.  Returns the reference."""
    field = m.field
    work = [list(row) for row in m._rows]
    pivots = _fraction_free_rref(work, field.reduce_row)
    rows, rk, reference_pivots = reference_rref(m)
    assert pivots == reference_pivots
    for row, c, want in zip(work, pivots, rows):
        inv = field.invert(field.element(row[c]))
        assert tuple(field.element(a) * inv for a in row) == want
    assert not any(map(any, work[rk:]))
    return rows, rk, pivots


def reference_evaluate(p: Polynomial, point):
    """Horner's rule on the payload operators, one normalised value per
    step: the evaluation the package used before its int kernels, kept as
    the reference those kernels must reproduce."""
    p.ring.check(point)
    if p.is_zero():
        return p.ring.zero
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * point + c
    return acc


def reference_quaternion_horner(numerators, x) -> tuple:
    """(A, d**n) with sum(P_i * x**i) = A / (e * d**n), for int numerator
    4-tuples P_0..P_n over one common denominator e and x = X / d, by
    Horner's rule on the ints, A_0 = P_n and
    A_k = A_(k-1) * X + P_(n-k) * d**k: the quaternion int core the
    package ran before it took the remainder by x's real quadratic, kept
    as the reference that core must reproduce."""
    x0, x1, x2, x3 = x._n
    d = x._den
    a0, a1, a2, a3 = numerators[-1]
    s = 1
    for n0, n1, n2, n3 in reversed(numerators[:-1]):
        s *= d
        a0, a1, a2, a3 = (
            a0 * x0 - a1 * x1 - a2 * x2 - a3 * x3 + n0 * s,
            a0 * x1 + a1 * x0 + a2 * x3 - a3 * x2 + n1 * s,
            a0 * x2 - a1 * x3 + a2 * x0 + a3 * x1 + n2 * s,
            a0 * x3 + a1 * x2 - a2 * x1 + a3 * x0 + n3 * s,
        )
    return (a0, a1, a2, a3), s


def reference_construct(roots, exact_degree=False) -> ConstructionTrace:
    """The root-folding loop with every new factor multiplied on by the
    general convolution, x_minus(s) * poly and x * poly: the construction
    the package used before it built x*P - s*P directly, kept as the
    reference it must reproduce."""
    roots = list(roots)
    ring = infer_ring(roots[0])
    x = Polynomial(ring, (ring.zero, ring.one))
    poly = Polynomial.x_minus(ring, roots[0])
    steps = []
    for index in range(1, len(roots)):
        root = roots[index]
        h = reference_evaluate(poly, root)
        if not h:
            if exact_degree:
                poly = x * poly
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
    return ConstructionTrace(ring, tuple(steps), poly)


def reference_constant_term(ring, coefficients, x):
    """-(x^n + sum_i a_i x^i) for coefficients (a_1, ..., a_(n-1)), from one
    power ladder with one normalised product and difference per term: the
    constant term the package used before it ran the ring's Horner
    kernel, kept as the reference that kernel must reproduce."""
    powers = ring.powers(x, len(coefficients) + 1)
    a0 = -powers[-1]
    for c, power in zip(coefficients, powers[1:]):
        a0 = a0 - c * power
    return a0


def side_by_side(*matrices) -> Matrix:
    """The matrices' columns side by side, built from their entries rows."""
    rows = zip(*(m.entries for m in matrices))
    return Matrix(matrices[0].field, [sum(parts, ()) for parts in rows])


def _reference_stacked_solve(blocks, rhs):
    """(consistent, particular, nullspace dim, rank, augmented rank) of
    sum_j X_j * A_j = B from one `reference_rref` of
    [A_1^T | ... | A_m^T | B^T], the system built from field elements, the
    particular solution read back as field elements with free variables
    zero: the solve the package ran on transposed and augmented `Matrix`
    objects before it built the system from int payloads, kept as the
    reference that route must reproduce.  It shares no elimination with
    the package."""
    field, k = rhs.field, rhs.nrows
    rows, rank_augmented, pivots = reference_rref(
        side_by_side(*(b.transpose() for b in (*blocks, rhs))))
    split = k * len(blocks)
    rk = sum(c < split for c in pivots)
    dim = k * (split - rk)
    if rk < rank_augmented:
        return False, None, dim, rk, rank_augmented
    y = [(field.zero,) * k] * split
    for row_idx, col in enumerate(pivots):
        y[col] = rows[row_idx][split:]
    particular = tuple(Matrix(field, y[j * k : (j + 1) * k]).transpose()
                       for j in range(len(blocks)))
    return True, particular, dim, rk, rank_augmented


def _reference_invert(ring, a):
    if isinstance(ring, MatrixRing):
        solved = _reference_stacked_solve((a,), ring.one)
        return solved[1][0] if solved[3] == ring.k else None
    return ring.invert(a)


def reference_criterion(x1, x2, n) -> CriterionReport:
    """The two-root criterion from operator ladders (`Ring.powers`),
    `Matrix` power differences and the element-wise stacked solve: the
    route the package took before it built the integer system from the
    ladders' numerators, kept as the reference it must reproduce."""
    ring = MatrixRing(x1.nrows, x1.field)
    p1, p2 = Ring.powers(ring, x1, n), Ring.powers(ring, x2, n)
    consistent, particular, dim, rk, rank_aug = _reference_stacked_solve(
        [p1[i] - p2[i] for i in range(1, n)], p2[n] - p1[n])
    a0 = reference_constant_term(ring, particular, x1) if consistent else None
    return CriterionReport(n, rk, rank_aug, consistent, particular, a0, dim, ring)


def reference_direct(x1, x2, n):
    """The direct construction as a loop over j of inverses of
    x1^j - x2^j and one product (x2^n - x1^n) * (x1^j - x2^j)^-1, the
    route the package took before it solved for a_j by one elimination
    per j, kept as the reference it must reproduce."""
    ring = infer_ring(x1)
    p1, p2 = Ring.powers(ring, x1, n), Ring.powers(ring, x2, n)
    for j in range(1, n):
        inverse = _reference_invert(ring, p1[j] - p2[j])
        if inverse is not None:
            break
    else:
        return None
    coefficients = [ring.zero] * (n - 1)
    coefficients[j - 1] = (p2[n] - p1[n]) * inverse
    a0 = reference_constant_term(ring, coefficients, x1)
    return Polynomial(ring, [a0, *coefficients, ring.one])
