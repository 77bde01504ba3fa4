"""Tour of the exact-arithmetic layer: GF(p) and sparse polynomials.

Run:  python demos/01_prime_fields_and_polynomials.py
"""

import random

from equidim import PolyRing, PrimeField, mono_cmp, parse_polynomial, random_affine_forms

# Arithmetic happens in a prime field chosen at runtime; 65521 is the
# default characteristic everywhere in this package.  Field elements are
# plain residues in [0, p), and PrimeField.inv inverts one.
F = PrimeField(65521)
p = F.p
a, b = 12345, 54321
quotient = a * F.inv(b) % p
print("a + b      =", (a + b) % p)
print("a * b      =", a * b % p)
print("a / b      =", quotient)
print("b * (a/b)  =", b * quotient % p, "(back to a)")

# Polynomials are sparse and live in a ring with named variables,
# ordered by the graded reverse lexicographic order.
R = PolyRing(F, ("x", "y", "z"))
x, y, z = R.gens()
f = (x + y) * (x - y) + z**2
print("\nf =", f)
print("leading exponents of f:", f.lead_exponents())
print("total degree:", f.total_degree())

# grevlex compares by total degree first, then by reverse lexicography:
print("\nx^2 vs x*y :", mono_cmp(R, (2, 0, 0), (1, 1, 0)))
print("x   vs y^2 :", mono_cmp(R, (1, 0, 0), (0, 2, 0)))

# The textual syntax used by system files round-trips:
g = parse_polynomial(R, "x^2 + 4*x*y - 3")
print("\nparsed:", g)
print("reparsed equals printed:", parse_polynomial(R, str(g)) == g)

# Random affine forms cut generic hyperplanes; they carry constant
# terms so the cut subspaces avoid the origin.
rng = random.Random(7)
forms = random_affine_forms(R, 2, rng)
print("\ntwo random affine forms:")
for ell in forms:
    print("   ", ell)
