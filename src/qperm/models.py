"""Matrix models: the Pauli spin model, the Klein twist, and free moments.

The spin model sends the generators of the order-4 quantum permutation
algebra to projections U^x_ij = Proj(c_i x c_j) in M_2, with x ranging
over SU_2 and c_1..c_4 the Pauli basis; Haar-averaged traces of words in
the U^x_ij reproduce the free Weingarten integrals, which is checked by
Monte Carlo against the exact values.  Conjugating a 4 x 4 magic
unitary by the Fourier matrix of the Klein four-group exposes a 3 x 3
orthogonal grid satisfying skew-commutation and a twisted determinant
identity, verified by residual reports.  The free hypergeometric moment
formula is evaluated against its own Weingarten oracle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import (
    DegenerateParameter,
    MalformedMatrix,
    NotBlockDiagonal,
    ShapeMismatch,
    SingularGram,
)
from .partitions import PartitionFamily, gram_weingarten
from .quantum import MagicUnitary
from .scalars import DEFAULT_TOL

_PAULI = np.array([
    [[1, 0], [0, 1]],
    [[1j, 0], [0, -1j]],
    [[0, 1], [-1, 0]],
    [[0, 1j], [1j, 0]],
], dtype=np.complex128)

_KLEIN = 0.5 * np.array([
    [1, 1, 1, 1],
    [1, -1, -1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
], dtype=np.float64)


def pauli_basis():
    """The four Pauli matrices c_1..c_4, orthogonal of norm sqrt(2)."""
    return _PAULI.copy()


@dataclass(frozen=True)
class SpinElement:
    """A special unitary 2 x 2 matrix given by its Pauli coefficients."""

    coeffs: tuple

    @property
    def matrix(self):
        v = np.asarray(self.coeffs)
        return np.einsum("m,mab->ab", v, _PAULI)

    def __neg__(self):
        return SpinElement(tuple(-c for c in self.coeffs))


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def su2_sample(seed):
    """Haar-uniform special unitary, deterministic per seed.

    A standard 4-dimensional Gaussian coefficient vector, normalized to
    the unit sphere, is uniform there and parametrizes the group through
    the Pauli basis.
    """
    rng = _as_rng(seed)
    v = rng.standard_normal(4)
    v = v / np.linalg.norm(v)
    return SpinElement(tuple(float(c) for c in v))


#: Samples per vectorised batch of the word estimator.  It bounds memory;
#: changing it moves seeded estimates by float rounding.
_WORD_BATCH = 8192


def _pauli_lines(xs, pairs):
    """Pauli coordinates w of the lines c_i x c_j for a batch of matrices x.

    xs has shape (batch, 2, 2) and pairs lists 0-based (i, j); the result
    has shape (batch, len(pairs), 4).  The block U_ij is the rank-one
    projection w w* / <w, w> in the Pauli coordinates of M_2 (trace inner
    product).
    """
    i, j = np.array(pairs).T
    mid = np.einsum("tab,nbc,tcd->ntad", _PAULI[i], xs, _PAULI[j])
    return np.einsum("mab,ntab->ntm", _PAULI.conj(), mid) / 2.0


def pauli_magic(x):
    """Magic unitary of rank-1 projections onto the lines c_i x c_j.

    x is a SpinElement or a 2 x 2 complex matrix; the blocks are written
    in the Pauli coordinates of M_2, so each is a concrete 4 x 4 matrix.
    The grid is unchanged under x -> -x.
    """
    mat = x.matrix if isinstance(x, SpinElement) else np.asarray(
        x, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ShapeMismatch("spin element must be 2 x 2")
    grid = [(i, j) for i in range(4) for j in range(4)]
    w = _pauli_lines(mat[None], grid)[0].reshape(4, 4, 4)
    norms = np.einsum("ijm,ijm->ij", w, w.conj()).real
    blocks = w[..., :, None] * w.conj()[..., None, :] / norms[..., None, None]
    return MagicUnitary(blocks, provenance="pauli-model")


@dataclass
class WordEstimate:
    """Monte-Carlo estimate of a Haar-averaged word trace."""

    word: tuple
    value: float
    stderr: float
    samples: int


def model_word_expectation(word, samples, seed):
    """Monte-Carlo average of the normalized trace of a word of blocks.

    word lists 1-based index pairs (i_m, j_m) of the monomial
    u_{i_1 j_1} ... u_{i_k j_k}; the estimate averages
    tr(U^x_{i_1 j_1} ... U^x_{i_k j_k}) / 4 over Haar samples x and
    matches the exact noncrossing Weingarten integral at order 4.  The
    blocks are rank-one projections onto lines w_t, so the trace is the
    cyclic product prod_t <w_t, w_{t+1}> / prod_t <w_t, w_t>.  For x in
    SU_2, c_i x c_j is a unit quaternion, so its Pauli coordinates w_t are
    a real unit vector and the product is prod_t w_t . w_{t+1}.
    """
    word = tuple((int(i), int(j)) for i, j in word)
    if not word:
        raise MalformedMatrix("word must be nonempty")
    if any(not (1 <= i <= 4 and 1 <= j <= 4) for i, j in word):
        raise MalformedMatrix("word indices must lie in 1..4")
    if samples < 1:
        raise MalformedMatrix("need at least one sample")
    pairs = [(i - 1, j - 1) for i, j in word]
    rng = _as_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(_WORD_BATCH, samples - done)
        v = rng.standard_normal((b, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        xs = np.einsum("nm,mab->nab", v, _PAULI)
        w = _pauli_lines(xs, pairs).real
        inner = np.einsum("ntm,ntm->nt", w, np.roll(w, -1, axis=1))
        vals = inner.prod(axis=1) / 4.0
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples) if samples > 1 else math.inf
    return WordEstimate(word, mean, stderr, samples)


# ---------------------------------------------------------------------------
# the Klein twist
# ---------------------------------------------------------------------------


def klein_fourier(u, tol=DEFAULT_TOL):
    """Orthogonal 3 x 3 grid obtained by the Klein-group Fourier twist.

    Conjugates the 4 x 4 block grid by the symmetric involution
    (1/2)[[1,1,1,1],[1,-1,-1,1],[1,-1,1,-1],[1,1,-1,-1]], checks that the
    result is block diagonal diag(1, a) and returns the 3 x 3 grid a.
    """
    if isinstance(u, MagicUnitary):
        if u.n != 4:
            raise ShapeMismatch("grid must be 4 x 4")
        blocks = u.blocks
    else:
        blocks = np.asarray(u, dtype=np.complex128)
        if blocks.ndim != 4 or blocks.shape[:2] != (4, 4) \
                or blocks.shape[2] != blocks.shape[3]:
            raise ShapeMismatch("grid must have shape (4, 4, d, d)")
    b = np.einsum("ik,klab,lj->ijab", _KLEIN, blocks, _KLEIN)
    d = b.shape[2]
    eye = np.eye(d)
    corner = float(np.abs(b[0, 0] - eye).max())
    border = float(max(np.abs(b[0, 1:]).max(), np.abs(b[1:, 0]).max()))
    if max(corner, border) > tol:
        raise NotBlockDiagonal(
            f"twist is not diag(1, a): corner residual {corner:.2e}, "
            f"border residual {border:.2e}"
        )
    return b[1:, 1:]


@dataclass
class SO3Report:
    """Residuals of the skew-orthogonality relations of a 3 x 3 grid."""

    ok: bool
    skew: float
    twisted_det: float
    orthogonality: float
    worst: tuple

    def __bool__(self):
        return self.ok


def check_so3q_relations(a, tol=DEFAULT_TOL):
    """Verify skew-commutation, twisted determinant and orthogonality.

    Entries at distinct grid positions must commute when both indices
    differ and anticommute when a row or column is shared; the six
    permutation products a_{1 s(1)} a_{2 s(2)} a_{3 s(3)} must sum to the
    identity; and the grid must be orthogonal in the operator sense.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 4 or a.shape[:2] != (3, 3) or a.shape[2] != a.shape[3]:
        raise ShapeMismatch("grid must have shape (3, 3, d, d)")
    d = a.shape[2]
    eye = np.eye(d)
    skew = 0.0
    worst = ("skew", 0, 0, 0, 0)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if (i, j) == (k, l):
                        continue
                    sign = 1.0 if (i != k and j != l) else -1.0
                    r = float(np.abs(a[i, j] @ a[k, l]
                                     - sign * a[k, l] @ a[i, j]).max())
                    if r > skew:
                        skew = r
                        worst = ("skew", i, j, k, l)
    det = -eye.astype(np.complex128)
    for s in permutations(range(3)):
        det = det + a[0, s[0]] @ a[1, s[1]] @ a[2, s[2]]
    twisted = float(np.abs(det).max())
    right = np.einsum("ikab,jkbc->ijac", a, a)
    left = np.einsum("kiab,kjbc->ijac", a, a)
    target = np.einsum("ij,ab->ijab", np.eye(3), eye)
    orth = float(max(np.abs(right - target).max(),
                     np.abs(left - target).max()))
    if twisted > skew and twisted >= orth:
        worst = ("twisted-det",)
    elif orth > skew and orth > twisted:
        worst = ("orthogonality",)
    ok = skew <= tol and twisted <= tol and orth <= tol
    return SO3Report(ok, skew, twisted, orth, worst)


# ---------------------------------------------------------------------------
# free hypergeometric moments
# ---------------------------------------------------------------------------


def free_hg_formula(n, k):
    """Closed-form k-th moment of the (n, n, n^2) block sum variable.

    Evaluates (n^k/(n+2)^k) * ((q+1)/(q-1)) * (1/(k+1)) *
    sum_{r=-k-1}^{k+1} (-1)^r * C(2k+2, k+r+1) * r / (1+q^r) at the
    root q of q + 1/q = -n lying in [-1, 0).  The prefactor base n+2 is
    pinned by the Weingarten oracle: it is the unique choice matching the
    exact moments (the first of which is always 1).  n = 2 makes q = -1
    and the summands degenerate, so it is rejected.
    """
    if n == 2:
        raise DegenerateParameter("n = 2 puts the parameter at -1")
    if n < 2 or k < 0:
        raise MalformedMatrix("need n >= 3 and k >= 0")
    q = (-n + math.sqrt(n * n - 4)) / 2.0
    acc = 0.0
    for r in range(-k - 1, k + 2):
        acc += (-1) ** r * math.comb(2 * k + 2, k + r + 1) * r / (1 + q ** r)
    return (n ** k / (n + 2.0) ** k) * ((q + 1) / (q - 1)) / (k + 1) * acc


def free_hg_oracle(n, m, N, k):
    """Exact k-th moment of the (n, m, N) block sum via Weingarten sums.

    The moment of sum_{i<=n, j<=m} u_ij under the free Haar state equals
    sum over pairs of noncrossing partitions of n^|pi| * m^|sigma| *
    W_kN(pi, sigma), returned as an exact rational.  The block is a corner
    of the N x N matrix, so ValueError unless 0 <= n, m <= N; an empty
    block (n or m = 0) has moment 0 for k >= 1.
    """
    if N < 4:
        raise MalformedMatrix("oracle needs N >= 4")
    if not (0 <= n <= N and 0 <= m <= N):
        raise ValueError(f"block sizes n={n}, m={m} must lie in [0, N={N}]")
    if k == 0:
        return Fraction(1)
    gw = gram_weingarten(PartitionFamily.NONCROSSING, k, N)
    if gw.is_singular:
        raise SingularGram(f"free Gram matrix singular at k={k}, N={N}")
    return gw.pairing([n ** p.block_count for p in gw.partitions],
                      [m ** p.block_count for p in gw.partitions])
