"""Gaussian-state entanglement for coupled harmonic oscillators.

Thermal oscillator entropy, the two-oscillator thermofield double, the
correlator-matrix method for subsystem entropy of N coupled
oscillators, the radial coupling matrix of a massless field on a
spherical lattice, and the area-law scan S(r) = lambda r^2.

All entropies in this module are in natural units (nats): the two
printed closed forms for the thermal entropy, the thermofield-double
approximation -log(eps) + 1 - eps/2, and the fitted area-law constant
0.27 hold verbatim only with natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qstate import (_check_array, _check_indices, _check_int, _check_interval, _check_positive,
                     _check_real, _is_int)

__all__ = [
    "CouplingMatrix",
    "CorrelatorPair",
    "EntropyCurve",
    "TfdPair",
    "thermal_entropy",
    "partition_function",
    "tfd_pair",
    "tfd_coupling",
    "correlators",
    "subsystem_entropy",
    "radial_K",
    "area_law_scan",
    "fit_area_coefficient",
]


@dataclass(frozen=True, eq=False, slots=True)
class CouplingMatrix:
    """Real symmetric positive-definite coupling matrix (frequency-squared units)."""

    K: np.ndarray = field(repr=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        K = _check_array("K", self.K, "real numbers")
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0:
            raise ValueError(f"K must be a nonempty square matrix, got shape {K.shape}")
        if not np.isfinite(K).all():
            raise ValueError("K must be finite")
        if not np.max(np.abs(K - K.T)) <= 1e-12:
            raise ValueError("K must be symmetric within 1e-12")
        if np.linalg.eigvalsh(K)[0] <= 0.0:
            raise ValueError("K must be positive-definite")
        K = 0.5 * (K + K.T)
        K.setflags(write=False)
        object.__setattr__(self, "n", K.shape[0])
        object.__setattr__(self, "K", K)


class CorrelatorPair(NamedTuple):
    """Ground-state correlators X = <phi phi>, P = <pi pi>."""

    X: np.ndarray
    P: np.ndarray


def thermal_entropy(beta_omega: float) -> float:
    """Entropy of one thermal oscillator in nats.

    Computed from both printed closed forms, the Boltzmann-sum form
    -log(1 - e^{-bw}) + bw e^{-bw}/(1 - e^{-bw}) and the c-form with
    c = (1/2) coth(bw/2); they must agree within 1e-10 and the common
    value is returned.  beta_omega = inf is the zero-temperature limit
    and gives 0.0; NaN and values not above 0 are a ValueError.  Below
    beta_omega ~ 2e-5 the forms disagree, and below ~5.5e-17 e^{-bw}
    rounds to 1, where the Boltzmann form has no value: both raise
    ArithmeticError naming beta*omega.
    """
    bw = float(_check_positive("beta_omega", beta_omega))
    x = math.exp(-bw)
    if x == 1.0:
        raise ArithmeticError(f"closed forms have no value at beta*omega={bw}: "
                              f"e^(-beta*omega) rounds to 1")
    boltzmann = -math.log1p(-x) + bw * x / (1.0 - x) if x > 0.0 else 0.0
    # c >= 1/2 as tanh <= 1.  Scalar math.log on purpose: np.log differs
    # from it by an ulp on some inputs, which would move the tfd data.
    c = 0.5 / math.tanh(bw / 2.0)
    lo = c - 0.5
    c_form = (c + 0.5) * math.log(c + 0.5) - lo * math.log(lo) if lo > 0.0 else 0.0
    if not abs(boltzmann - c_form) <= 1e-10:
        raise ArithmeticError(
            f"closed forms disagree at beta*omega={bw}: {boltzmann} vs {c_form}")
    return c_form


def partition_function(beta_omega: float) -> float:
    """Z = 1/(2 sinh(bw/2)), the closed form of the geometric series."""
    bw = float(_check_positive("beta_omega", beta_omega))
    return 1.0 / (2.0 * math.sinh(bw / 2.0))


class TfdPair(NamedTuple):
    """Thermofield-double summary for mixing angle theta."""

    omega_plus: float
    omega_minus: float
    a: float
    t_effective: float
    s_exact: float
    s_approx: float


def tfd_pair(theta: float, omega: float = 1.0) -> TfdPair:
    """Two coupled oscillators whose one-sided reduction is exactly thermal.

    omega_pm = omega (1 +- sin theta)/cos theta are the normal modes,
    A = -tan(theta/2) the pairing coefficient, and tan^2(theta/2) =
    e^{-beta omega} fixes the effective temperature.  S_approx is the
    small-(1 - tan^2(theta/2)) expansion -log(eps) + 1 - eps/2, which
    captures the logarithmic divergence as theta -> pi/2.
    """
    _check_interval("theta", theta, 0.0, math.pi / 2, "strictly inside (0, pi/2)", strict=True)
    _check_positive("omega", _check_real("omega", omega))
    sin, cos = math.sin(theta), math.cos(theta)
    omega_plus = omega * (1.0 + sin) / cos
    omega_minus = omega * (1.0 - sin) / cos
    half_tan = math.tan(theta / 2.0)
    beta_omega = -2.0 * math.log(half_tan)
    eps = 1.0 - half_tan**2
    return TfdPair(
        omega_plus,
        omega_minus,
        -half_tan,
        omega / beta_omega,
        thermal_entropy(beta_omega),
        -math.log(eps) + 1.0 - eps / 2.0,
    )


def tfd_coupling(theta: float, omega: float = 1.0) -> CouplingMatrix:
    """The 2x2 coupling matrix whose normal modes are the TFD pair.

    K = omega^2 [[1 + 2 tan^2 t, 2 tan t / cos t], [sym, same]]; its
    eigenvalues are omega_pm^2.
    """
    _check_interval("theta", theta, 0.0, math.pi / 2, "strictly inside (0, pi/2)", strict=True)
    _check_positive("omega", _check_real("omega", omega))
    tan, cos = math.tan(theta), math.cos(theta)
    diag = 1.0 + 2.0 * tan**2
    off = 2.0 * tan / cos
    return CouplingMatrix(omega**2 * np.array([[diag, off], [off, diag]]))


# l-channels per batched LAPACK call in area_law_scan.  A stack holds
# 16 x N x N floats per correlator: against 8 it halves the per-stack
# numpy calls of area_law_scan(60, 300) for 0.6 MB more peak memory,
# and 32 would add about 3.7 MB more.
_L_STACK = 16

# stacks area_law_scan keeps submitted to its two workers: two run while
# one waits, and at most two are computed past the last one added
_IN_FLIGHT = 3

# area_law_scan's size limits.  Its traced peak is about 10 arrays of
# 16 x N x N floats, 1.3 kB x N^2 (measured at N = 60..400 with two
# stacks in flight), so 600 sites peak near 0.47 GB, on a par with two
# states at qstate._MAX_QUBITS.  The peak does not grow with l_max, so
# its limit bounds the time: the tail test stopped every radius by
# l = 684, 1750 and 3526 at N = 12, 30 and 60, about 60 N, so up to
# N = 600 every sum stops before l = 10^5.
_MAX_SCAN_N = 600
_MAX_SCAN_L = 10**5

# area_law_scan's fit range, as a fraction of R, and its l-sum tail bound
_FIT_FRACTION = 0.975
_TAIL = 1e-3

# relative accuracy certified for each S_l of area_law_scan when only a
# trailing corner of its D matrix is diagonalised
_CORNER_TOL = 1e-15


def _correlator_stack(K: np.ndarray) -> tuple:
    # X = K^{-1/2}/2 and P = K^{1/2}/2 for each matrix of a (..., n, n) stack
    evals, vecs = np.linalg.eigh(K)
    if not np.all(evals[..., 0] > 0.0):
        raise ValueError("K must be positive-definite")
    root = np.sqrt(evals)[..., None, :]
    vecs_t = np.swapaxes(vecs, -1, -2)
    # the 1/2 rides on one operand: halving is exact, so each product is
    # bit for bit (vecs / root) @ vecs_t / 2 without its extra temporary
    return (vecs / (2.0 * root)) @ vecs_t, (vecs * (0.5 * root)) @ vecs_t


def correlators(K: CouplingMatrix) -> CorrelatorPair:
    """X = K^{-1/2}/2 and P = K^{1/2}/2 via the symmetric eigendecomposition."""
    return CorrelatorPair(*_correlator_stack(K.K))


def _c_form(delta: np.ndarray) -> np.ndarray:
    # The c-form (c+1/2)ln(c+1/2) - (c-1/2)ln(c-1/2) of each symplectic
    # value c, given delta = c^2 - 1/4.  c - 1/2 and ln(c + 1/2) come
    # from delta, not c, so a tiny c - 1/2 keeps its digits.  c within
    # 1e-9 of 1/2 contributes 0; smaller c signals a matrix-function
    # error.  As a function of delta it is increasing and concave, and 0
    # at delta = 0.  A NaN or infinite delta is a ValueError; NaN fails
    # both guards below too, so this check only picks the message.
    if not np.isfinite(delta).all():
        bad = delta[~np.isfinite(delta)][0]
        raise ValueError(f"non-finite symplectic value c^2 - 1/4 = {bad}")
    mu = delta + 0.25
    if not mu.min() >= -1e-9:
        raise ValueError(f"negative symplectic spectrum {mu.min()} beyond tolerance")
    c = np.sqrt(np.maximum(mu, 0.0, out=mu), out=mu)
    lo = delta / (c + 0.5)
    if not lo.min() >= -1e-9:
        raise ValueError(f"symplectic eigenvalue {c.min()} below 1/2 beyond tolerance")
    del c, mu  # in-place steps below: the scan calls this on large stacks
    dead = ~(lo > 0.0)
    lo[dead] = 1.0  # log(1) keeps the masked terms finite
    out = np.log1p(lo)
    out *= 1.0 + lo
    out -= lo * np.log(lo)
    out[dead] = 0.0
    return out


def _spectrum_entropy(delta: np.ndarray) -> np.ndarray:
    # the c-form entropy of a spectrum of delta = c^2 - 1/4 (last axis)
    return _c_form(delta).sum(axis=-1)


def _cholesky(X: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        raise ValueError("X sub-block lost positive-definiteness") from None


def _delta_matrix(chol: np.ndarray, P: np.ndarray, m: int, s: int = 0) -> np.ndarray:
    # D, whose eigenvalues are c^2 - 1/4 for the leading m sites A of each
    # (..., n, n) stack, from the Cholesky factor chol = [[L_A, 0], [C, L_B]]
    # of X and from P, both in the same site order.  X P = 1/4 makes
    # L_A^T P_A L_A - 1/4 (X_A P_A is similar to L_A^T P_A L_A) equal to
    # D = C^T P_B C = -C^T P_BA L_A: built from the off-diagonal blocks,
    # it does not cancel against 1/4.  Given s, only the trailing corner
    # D[s:, s:] is formed; L_A is lower triangular, so it needs only the
    # columns s.. of C, P_BA and L_A.
    c_t = np.swapaxes(chol[..., m:, s:m], -1, -2)
    D = (c_t @ P[..., m:, s:m]) @ chol[..., s:m, s:m]
    return np.negative(D, out=D)


def subsystem_entropy(K: CouplingMatrix, keep) -> float:
    """Ground-state entanglement entropy (nats) of the oscillators in keep.

    The sites are reordered to put keep (A) first and X = L L^T is
    Cholesky-factored.  The eigenvalues c_k^2 of X_A P_A are those of
    the symmetric L_A^T P_A L_A, where L_A is the leading block of L;
    since X P = 1/4, c_k^2 - 1/4 is taken from the equal -C^T P_BA L_A
    (C the off-diagonal block of L), which keeps tiny c_k - 1/2 exact
    to working precision.  The symplectic values c_k feed the c-form
    entropy.
    """
    keep = sorted(set(_check_indices(keep, K.n, "site")))
    X, P = correlators(K)
    order = keep + sorted(set(range(K.n)) - set(keep))
    block = np.ix_(order, order)
    delta = _delta_matrix(_cholesky(X[block]), P[block], len(keep))
    return float(_spectrum_entropy(np.linalg.eigvalsh(delta)))


def _radial_stack(ls, N: int) -> np.ndarray:
    # radial_K's matrix for each l in ls, stacked along the first axis
    j = np.arange(1, N + 1, dtype=float)
    l = np.asarray(ls, dtype=float)[:, None]
    site = np.arange(N)
    K = np.zeros((l.shape[0], N, N))
    K[:, site, site] = ((j + 0.5) ** 2 + (j - 0.5) ** 2 + l * (l + 1)) / j**2
    off = -((j[:-1] + 0.5) ** 2) / (j[:-1] * (j[:-1] + 1.0))
    K[:, site[:-1], site[1:]] = off
    K[:, site[1:], site[:-1]] = off
    return K


def radial_K(l: int, N: int) -> CouplingMatrix:
    """Radial coupling matrix of one angular-momentum channel, lattice units.

    Sites j = 1..N; diagonal [(j+1/2)^2 + (j-1/2)^2 + l(l+1)]/j^2 and
    adjacent coupling -(j+1/2)^2/(j(j+1)), applied verbatim with no
    special boundary rows.
    """
    l, N = _check_int("l", l, 0), _check_int("N", N, 2)
    return CouplingMatrix(_radial_stack([l], N)[0])


@dataclass(frozen=True)
class EntropyCurve:
    """Entropy-vs-radius samples and the area-law fit (nats).

    samples holds (r, S) with r = j_max + 1/2 in lattice units;
    fit_lambda solves S = lambda r^2 by zero-intercept least squares
    over r < fit_fraction * R.  Per radius, l_stop is the last l summed
    (None at the two exact-zero endpoints) and capped is True where the
    l-sum ran into the cap l_max before its tail test stopped it.
    corner_bound is the largest certified relative error of the summed
    S_l terms that the corner truncation of area_law_scan allows.
    """

    n: int
    l_max: int
    samples: tuple
    fit_fraction: float
    fit_lambda: float
    l_stop: tuple
    capped: tuple
    corner_bound: float


def fit_area_coefficient(samples, r_max: float) -> float:
    """Zero-intercept least squares for S = lambda r^2 over r < r_max."""
    pts = [(r, s) for r, s in samples if r < r_max]
    if not pts:
        raise ValueError("no samples inside the fit range")
    r = np.array([p[0] for p in pts])
    s = np.array([p[1] for p in pts])
    denom = float(np.sum(r**4))
    if denom == 0.0:
        raise ValueError("degenerate fit range")
    return float(np.sum(r**2 * s) / denom)


def _diagonal_bounds(chol: np.ndarray, P: np.ndarray, ms: np.ndarray, h: int) -> tuple:
    # For the cuts of sizes ms in one site order (chol and P as in
    # _delta_matrix, stacked along the first axis): upper bounds on the
    # diagonal of each D, shaped (cuts, stack, h) with the site next to
    # the cut last and zeros in front, and the exact last diagonal entry,
    # shaped (cuts, stack).  With c the column i of C, D_ii = c^T P_B c is
    # at most sum_b w_b c_b^2, w_b = sum_b' |P_bb'| (as |c_b c_b'| <=
    # (c_b^2 + c_b'^2)/2), a suffix sum over the rows b >= m of each column
    # that serves every cut at once.  Column m - 1 of L_A holds only
    # L_{m-1,m-1}, so D_{m-1,m-1} = -L_{m-1,m-1} sum_{b>=m} C_b P_{b,m-1}.
    def suffix_sums(a):
        return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]

    cols = chol[..., :h]
    weighted = suffix_sums(cols**2 * np.abs(P).sum(axis=-1)[..., None])
    cross = suffix_sums(cols * P[..., :h])
    site = ms[:, None] - h + np.arange(h)  # negative in the zero padding
    diag = np.where(site >= 0, weighted[:, ms[:, None], site], 0.0)
    last = -chol[:, ms - 1, ms - 1] * cross[:, ms, ms - 1]
    return np.moveaxis(diag, 0, 1), last.T


def _corner_sizes(diag: np.ndarray, last: np.ndarray) -> tuple:
    # From _diagonal_bounds: the smallest k per cut whose trailing k x k
    # corner D_k of each D of the stack certifies S(D) - S(D_k) <=
    # _CORNER_TOL * S(D_k), and the certified bound on S(D) - S(D_k) per D.
    # Cauchy interlacing gives S(D) >= S(D_k); pinching D to D_k (+) the
    # rest, and then the rest to its diagonal, gives S(D) - S(D_k) <= the
    # sum of g(D_ii) over the sites left out, g = _c_form increasing and
    # concave (sum g is Schur-concave); and Rayleigh gives S(D_k) >=
    # g(D_{m-1,m-1}).  left[s], the bound for the corner that starts at
    # site s, grows with s, so the certified starts form a prefix of 0..h-1.
    # g(0) = 0, so the zero padding is skipped; != rather than > lets a
    # NaN bound reach _c_form's finiteness check
    g = np.zeros_like(diag)
    filled = diag != 0.0
    g[filled] = _c_form(diag[filled])
    left = np.zeros_like(g)
    np.cumsum(g[..., :-1], axis=-1, out=left[..., 1:])
    floor = _CORNER_TOL * _c_form(np.maximum(last, 0.0))
    start = np.count_nonzero((left <= floor[..., None]).all(axis=1), axis=-1) - 1
    return g.shape[-1] - start, np.take_along_axis(left, start[:, None, None], -1)[..., 0]


def _shell_terms(ls, N: int, j_maxes) -> tuple:
    # S_l of the shell j > j_max, one row per j_max and one column per l,
    # and the certified relative bound of each from its corner truncation.
    # One batched eigh gives the correlators of every l and two batched
    # Cholesky factors serve every cut: X itself, whose leading blocks are
    # the inner sites 0..j_max-1, and X in reversed site order, whose
    # leading blocks are the outer sites j_max..N-1.  The ground state is
    # pure, so each cut takes the smaller side, m = min(j_max, N - j_max)
    # sites, whose last sites border the cut in both orders.  Only the
    # certified trailing corner of each D is formed and diagonalised, with
    # one batched eigvalsh per corner size across the radii.
    X, P = _correlator_stack(_radial_stack(ls, N))
    sides = (_cholesky(X), P), (_cholesky(X[:, ::-1, ::-1]), P[:, ::-1, ::-1])
    del X  # its stack is not needed past the factors; free it early
    j_maxes = np.asarray(j_maxes)
    ms = np.minimum(j_maxes, N - j_maxes)
    outer = 2 * j_maxes >= N
    h = int(ms.max())
    diag = np.empty((len(ms), len(ls), h))
    last = np.empty((len(ms), len(ls)))
    for side, (chol, p) in zip((~outer, outer), sides):
        diag[side], last[side] = _diagonal_bounds(chol, p, ms[side], h)
    ks, left_out = _corner_sizes(diag, last)
    cuts = [(*sides[o], m) for o, m in zip(outer.tolist(), ms.tolist())]
    groups, spectra = [], []
    for k in set(ks.tolist()):
        rows = np.flatnonzero(ks == k)
        D = np.empty((len(rows), len(ls), k, k))
        for i, row in enumerate(rows.tolist()):
            chol, p, m = cuts[row]
            D[i] = _delta_matrix(chol, p, m, m - k)
        groups.append(rows)
        spectra.append(np.linalg.eigvalsh(D))
    # one c-form pass over every spectrum of the stack; each S_l is then
    # summed over its own group's (rows, stack, k) shape, which adds its
    # terms in the order _spectrum_entropy on that group alone would
    g = _c_form(np.concatenate([w.ravel() for w in spectra]))
    ends = np.cumsum([w.size for w in spectra])
    out = np.empty((len(ms), len(ls)))
    for rows, w, part in zip(groups, spectra, np.split(g, ends[:-1])):
        out[rows] = part.reshape(w.shape).sum(axis=-1)
    bound = np.divide(left_out, out, out=np.zeros_like(out), where=left_out > 0.0)
    return out, bound


def _shell_entropies(ls, N: int, j_maxes) -> np.ndarray:
    # _shell_terms without the bounds
    return _shell_terms(ls, N, j_maxes)[0]


def _accumulate(S: np.ndarray, prev: np.ndarray, ls: np.ndarray,
                terms: np.ndarray) -> tuple:
    # Add one stack of l-terms (one row per radius) to the running sums S
    # in ascending l, each row stopping at its first l >= 2 whose
    # geometric remainder term * rho/(1 - rho), rho = term/prev (1 when
    # prev is not positive), is below _TAIL of the sum so far; a zero
    # term ends the sum.  cumsum adds left to right, so every sum is the
    # one a term-by-term loop makes.  Returns the new sums, the last term
    # and l summed, and which rows stopped.
    running = np.cumsum(np.column_stack([S, terms]), axis=1)[:, 1:]
    before = np.column_stack([prev, terms[:, :-1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(before > 0.0, terms / before, 1.0)
        remainder = terms * rho / (1.0 - rho)
    stop = (ls >= 2) & ((terms == 0.0) | ((rho < 1.0) & (remainder < _TAIL * running)))
    stopped = stop.any(axis=1)
    last = np.where(stopped, stop.argmax(axis=1), len(ls) - 1)
    rows = np.arange(len(S))
    return running[rows, last], terms[rows, last], ls[last], stopped


def area_law_scan(N: int, l_max: int) -> EntropyCurve:
    """Entanglement entropy of the outer shell versus inner radius.

    S(r) = sum_l (2l+1) S_l(r), sampled at r = j_max + 1/2 for
    j_max = 0..N, where S_l is the entropy of sites j > j_max in the
    ground state of radial_K(l, N).  S_l is computed as in
    subsystem_entropy (Cholesky factor of X, c^2 - 1/4 from its
    off-diagonal block) for the smaller side of the cut, since the
    state is pure and both sides agree, with the l-channels taken in
    stacks of 16 per LAPACK call.  Only the trailing corner of each
    cut's matrix is diagonalised, the sites next to the cut, sized so
    that a rigorous bound keeps each S_l within 1e-15 relative of the
    full result; corner_bound reports the largest such bound over the
    terms summed.

    The stacks are computed by the two workers of a ThreadPoolExecutor,
    made per call and shut down (both threads joined) before the call
    returns or raises.  The calling thread computes nothing: it keeps
    _IN_FLIGHT = 3 stacks submitted, each for the radii active when it
    is submitted, and adds them to the running sums in ascending l as
    they finish.  Two stacks run while one waits, so a worker that is
    free starts the next stack at once, and at most two stacks are
    computed past the last one added.  A worker's exception on a stack
    the scan adds comes out of the call unchanged through
    Future.result(), and the stacks still queued are cancelled; the
    results of stacks past the last one added are not read, since one
    stack at a time would not compute them.  The active radii only
    shrink, so each stack's rows cover every radius still active when it
    is added, and the rest are dropped.  A radius's terms do not depend
    on the other radii of its batch, so every field is bit for bit that
    of one stack at a time on one thread.  The workers compete with a
    multi-threaded BLAS for the cores, so set OPENBLAS_NUM_THREADS=1 for
    the scan.

    The l-sum for each radius stops once the geometric tail estimate
    term * rho/(1 - rho) (rho the consecutive term ratio) falls below
    1e-3 of the running sum, or at the hard cap l_max (reported per
    radius in l_stop and capped); terms are accumulated in ascending l
    for determinism, and the terms of a stack past a radius's stop are
    dropped.  The endpoints r = 1/2 (keep everything, pure state) and
    r = R (keep nothing) are exactly 0, with no l_stop.
    fit_lambda fits S = lambda r^2 over r < 0.975 R.  N must be in
    10..600 and l_max in 1..10^5 (_MAX_SCAN_N, _MAX_SCAN_L), checked
    before anything is allocated.
    """
    if _is_int(N) and N < 10:
        raise ValueError("need N >= 10 for a meaningful scan")
    N = _check_int("N", N, 10, _MAX_SCAN_N)
    l_max = _check_int("l_max", l_max, 1, _MAX_SCAN_L)
    S = np.zeros(N + 1)
    prev = np.zeros(N + 1)
    l_stop = np.full(N + 1, -1)
    corner_bound = 0.0
    active = np.ones(N + 1, dtype=bool)
    active[0] = active[N] = False  # exact zeros at both endpoints
    radii = np.nonzero(active)[0]
    stacks = [np.arange(l0, min(l0 + _L_STACK, l_max + 1))
              for l0 in range(0, l_max + 1, _L_STACK)]

    # here, not at the top: it would add to `import qilab`
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(2, thread_name_prefix="area_law_scan")
    pending = []  # (rows, future) of each stack submitted and not yet added, in l order
    try:
        for i, ls in enumerate(stacks):
            # stacks i .. i + _IN_FLIGHT - 1 submitted, each for the radii active now
            for k in range(i + len(pending), min(i + _IN_FLIGHT, len(stacks))):
                pending.append((radii, pool.submit(_shell_terms, stacks[k], N, radii)))
            rows, future = pending.pop(0)
            entropies, bounds = future.result()  # a worker's exception, unchanged
            keep = np.isin(rows, radii)
            S[radii], prev[radii], l_stop[radii], stopped = _accumulate(
                S[radii], prev[radii], ls, (2 * ls + 1) * entropies[keep])
            active[radii[stopped]] = False
            summed = ls <= l_stop[radii, None]
            corner_bound = max(corner_bound, float(bounds[keep][summed].max()))
            radii = np.nonzero(active)[0]
            if radii.size == 0:
                break
    finally:
        pool.shutdown(cancel_futures=True)  # joins both workers, also when a stack raises
    r = np.arange(N + 1) + 0.5
    samples = tuple((float(rv), float(sv)) for rv, sv in zip(r, S))
    lam = fit_area_coefficient(samples, _FIT_FRACTION * (N + 0.5))
    return EntropyCurve(N, l_max, samples, _FIT_FRACTION, lam,
                        (None, *l_stop[1:-1].tolist(), None),
                        tuple(bool(a) for a in active), float(corner_bound))
