"""Moment identities of the 1D, 2D and 3D solutions.

One Mellin formula gives them all: the radial moment is the contour kernel
K_n at the real point s = n - 1 - beta,

    int_0^inf G_{alpha,n}(r, t) r^beta dr = t^(beta+1-n) K_n(n - 1 - beta) / (alpha pi^(n/2)).

The 1D solution is a unit-mass probability density with finite moments up to
order alpha; the 2D and 3D solutions are signed, but their radial integrals
against r^beta exist for n - 1 - alpha < beta < n - 1 + alpha and take
strikingly simple values:

    2D:  I_{alpha,0} = 0,   I_{alpha,1} = 1/(2 pi);
    3D:  I_{alpha,1} = 0,   I_{alpha,2} = 1/(4 pi),   I_{alpha,3}(t) = t/(alpha pi sin(pi/alpha)).

Each formula is cross-checked here against direct numerical integration of
the corresponding solution profile.
"""

import math

from fracwave import moment, moment_numeric

print("1D half-line moments, t = 1")
print(f"{'alpha':>6} {'beta':>5} {'formula':>16} {'numeric':>16} {'rel diff':>10}")
for alpha in (1.1, 1.5, 1.9):
    for beta in (0.0, 0.5, 1.0):
        f = moment(alpha, 1, beta, 1.0)
        n = moment_numeric(alpha, 1, beta, 1.0)
        print(f"{alpha:6.2f} {beta:5.2f} {f:16.12f} {n:16.12f} {abs(f - n) / f:10.2e}")
print(f"total mass 2 * I(beta=0) = {2 * moment_numeric(1.5, 1, 0.0, 1.0):.9f} (unit)")
print(f"mean exists for alpha > 1 only: the Cauchy kernel (alpha = 1) has none")

print()
print("2D radial integrals, t = 1")
print(f"{'alpha':>6} {'beta':>5} {'formula':>16} {'numeric':>16}")
for alpha in (1.1, 1.5, 1.9):
    for beta in (0.0, 1.0):
        f = moment(alpha, 2, beta, 1.0)
        n = moment_numeric(alpha, 2, beta, 1.0)
        print(f"{alpha:6.2f} {beta:5.2f} {f:16.12f} {n:16.9e}")
print(f"beta = 0 vanishes: the 2D solution is signed; beta = 1 is the unit mass "
      f"1/(2 pi) = {1.0 / (2.0 * math.pi):.12f}")

print()
print("3D radial integrals, t = 1")
print(f"{'alpha':>6} {'beta':>5} {'formula':>16} {'numeric':>16}")
for alpha in (1.1, 1.5, 1.9):
    for beta in (1.0, 2.0, 3.0):
        f = moment(alpha, 3, beta, 1.0)
        n = moment_numeric(alpha, 3, beta, 1.0)
        print(f"{alpha:6.2f} {beta:5.2f} {f:16.12f} {n:16.12f}")
print(f"beta = 2 is universal: 1/(4 pi) = {1.0 / (4.0 * math.pi):.12f} "
      f"for every order and time")
