"""The ideal-theoretic toolkit: bases, saturation, membership, dimension.

Run:  python demos/02_groebner_toolkit.py
"""

from equidim import (
    PolyRing,
    PrimeField,
    buchberger,
    dimension,
    ideal_member,
    normal_form,
    quotient_degree,
    radical_member,
    saturate,
)

R = PolyRing(PrimeField(65521), ("x", "y", "z"))
x, y, z = R.gens()

# A reduced basis is a canonical form of the ideal: equal ideals give
# structurally equal bases, whatever generators you start from.
gb1 = buchberger([x**2 + y**2, x * y])
gb2 = buchberger([x * y, x**2 + y**2 + 3 * x * y])
print("basis:", gb1)
print("same ideal, different generators -> same basis:", gb1 == gb2)

# Normal forms are canonical remainders:
print("\nNF(x*y + y modulo <x - 1>) =", normal_form(x * y + y, buchberger([x - 1])))

# Membership and radical membership:
G = buchberger([x**2, z])
print("\nx^2 in <x^2, z>:", ideal_member(x**2, G))
print("x   in <x^2, z>:", ideal_member(x, G))
print("x   in rad<x^2, z>:", radical_member(x, G))

# Saturation removes the part of a variety living on a hypersurface:
# V(xy) is the two axes; saturating by x removes the x=0 axis.
print("\nsat(<x*y>, x) =", saturate([x * y], x))
print("sat(<x^2>, x) =", saturate([x**2], x), "(nothing survives)")

# Dimension and degree:
print("\ndim V(xy, xz) =", dimension(buchberger([x * y, x * z])))
pts = buchberger([x**2 - 1, y**2 - 1, z])
print("degree of the four points V(x^2-1, y^2-1, z):", quotient_degree(pts))
