"""The quotient shapes the epimorphism and action tests sweep."""

from itertools import combinations_with_replacement

from necsurf import NECSignature, reduced_area


def battery_shapes(max_gamma=5, max_r=4, max_order=12):
    """Every hyperbolic (gamma, periods, 2n) with n even, 2n <= max_order,
    gamma <= max_gamma and r <= max_r periods, each dividing n; in order
    of 2n, gamma, r, then periods."""
    shapes = []
    for order in range(4, max_order + 1, 4):
        n = order // 2
        divisors = [p for p in range(2, n + 1) if n % p == 0]
        for gamma in range(1, max_gamma + 1):
            for r in range(max_r + 1):
                for periods in combinations_with_replacement(divisors, r):
                    if reduced_area(NECSignature(False, gamma, periods)) > 0:
                        shapes.append((gamma, periods, order))
    return shapes
