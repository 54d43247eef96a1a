"""Tour of the stable-distribution core.

The propagation delay of a particle diffusing to an absorbing receiver
follows the one-sided Levy law -- the alpha = 1/2, beta = 1 member of the
stable family.  This script evaluates densities along the closed-form and
numerical routes, then confirms the sampler against the CDF.
"""

import math

import numpy as np

from mtchan import (StableParams, StandardStable, cdf, pdf, sample, std_pdf,
                    tail_coefficient)

levy = StandardStable(0.5, 1.0)
print("standard Levy density at its mode x = 1/3:")
print(f"  f(1/3) = {std_pdf(levy, 1.0 / 3.0):.7f}")

print("\nsymmetric alpha = 1/2 law (closed form in the Faddeeva function):")
sym = StandardStable(0.5, 0.0)
print(f"  f(0) = {std_pdf(sym, 0.0):.12f}   (2/pi = {2.0 / math.pi:.12f})")

print("\nother exponents: numerical inversion (Nolan's integral), right into")
print("the tail f ~ alpha*C*(1+beta)*x^(-1-alpha):")
for alpha in (0.7, 1.5):
    law = StandardStable(alpha, 0.5)
    for x in (10.0, 1e5):
        lead = alpha * tail_coefficient(alpha) * 1.5 * x ** (-1.0 - alpha)
        print(f"  alpha = {alpha}, x = {x:7.0e}: f = {std_pdf(law, x):.6e}"
              f"  (leading tail term {lead:.6e})")

print("\nskewed member, general location/scale:")
params = StableParams(mu=1.0, c=2.0, alpha=0.5, beta=0.4)
for x in (0.5, 1.5, 4.0, 20.0):
    print(f"  x = {x:5.1f}: pdf = {pdf(params, x):.6f}  cdf = {cdf(params, x):.6f}")

print("\nheavy tails in action: empirical quantiles of 10^5 Levy draws")
draws = sample(StableParams(0.0, 1.0, 0.5, 1.0), 100_000, seed=1)
for q in (0.5, 0.9, 0.99, 0.999):
    print(f"  {q:5.1%} quantile: {np.quantile(draws, q):12.1f}")
print("  (the mean delay is infinite -- no moment of order >= 1/2 exists)")
