"""Generate the frozen block-entropy oracle of tests/test_area_oracle.py.

S_l(A) in nats for the ground state of the radial lattice of one
angular-momentum channel, N = 24 sites, A = the outer sites j > 12,
worked out at 80 significant digits with mpmath and printed to 40.
The route shares no code with qilab: the coupling matrix is written
from its definition, X = K^{-1/2}/2 and P = K^{1/2}/2 come from an
mpmath symmetric eigendecomposition, and the symplectic values are
c = sqrt(eig(X_A^{1/2} P_A X_A^{1/2})).

mpmath is not a dependency of qilab and the test suite never runs this
script.  Run it by hand to regenerate the table:

    python tests/oracle/gen_area_oracle.py
"""

import mpmath as mp

N = 24
CUT = 12
LS = (0, 10, 1000)

mp.mp.dps = 80


def radial_coupling(l, n):
    K = mp.zeros(n, n)
    for j in range(1, n + 1):
        jf = mp.mpf(j)
        K[j - 1, j - 1] = ((jf + mp.mpf(1) / 2) ** 2 + (jf - mp.mpf(1) / 2) ** 2
                           + l * (l + 1)) / jf**2
        if j < n:
            off = -((jf + mp.mpf(1) / 2) ** 2) / (jf * (jf + 1))
            K[j - 1, j] = K[j, j - 1] = off
    return K


def matrix_power(M, p):
    evals, vecs = mp.eigsy(M)
    D = mp.diag([e**p for e in evals])
    return vecs * D * vecs.T


def block_entropy(l):
    K = radial_coupling(l, N)
    X = matrix_power(K, mp.mpf(-1) / 2) / 2
    P = matrix_power(K, mp.mpf(1) / 2) / 2
    m = N - CUT
    XA = mp.matrix(m, m)
    PA = mp.matrix(m, m)
    for a in range(m):
        for b in range(m):
            XA[a, b] = X[CUT + a, CUT + b]
            PA[a, b] = P[CUT + a, CUT + b]
    R = matrix_power(XA, mp.mpf(1) / 2)
    mu, _ = mp.eigsy(R * PA * R)
    total = mp.mpf(0)
    for v in mu:
        c = mp.sqrt(v)
        lo = c - mp.mpf(1) / 2
        total += (c + mp.mpf(1) / 2) * mp.log(c + mp.mpf(1) / 2)
        if lo > 0:
            total -= lo * mp.log(lo)
    return total


if __name__ == "__main__":
    for l in LS:
        value = mp.nstr(block_entropy(l), 40, min_fixed=0, max_fixed=0)
        print(f'    {l}: "{value}",')
