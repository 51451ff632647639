import random
from fractions import Fraction

import pytest

from gainchart import (
    Partition,
    RatMatrix,
    SingularMatrixError,
    SpectralData,
    assemble,
    centralizer_dimension_weyr,
    p_brunovsky_pair,
)
from gainchart.canonical import degrees_desc

from oracles import centralizer_element


@pytest.fixture
def rng():
    return random.Random(0xA11CE)


def rand_frac(rng, lo=-4, hi=4, dens=(1, 1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_matrix(rng, rows, cols, lo=-4, hi=4, dens=(1, 1, 1, 2, 3)):
    return RatMatrix([[rand_frac(rng, lo, hi, dens) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng, n, lo=-3, hi=3):
    while True:
        m = RatMatrix([[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def rand_unimodular(rng, n):
    """Integer matrix with determinant +-1 (inverse stays integral)."""
    m = RatMatrix.identity(n).tolists()
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += c * m[j][col]
    return RatMatrix(m)


def rand_partition(rng, total):
    parts = []
    rem = total
    while rem:
        p = rng.randint(1, rem)
        parts.append(p)
        rem -= p
    return Partition(sorted(parts, reverse=True))


def rand_spectral(rng, n, max_real=2, allow_complex=True):
    """Random factored class of total size n."""
    while True:
        real, cpx = [], []
        remaining = n
        if allow_complex and n >= 2 and rng.random() < 0.5:
            size = rng.randint(1, n // 2)
            cpx.append(
                (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 2)), rand_partition(rng, size))
            )
            remaining -= 2 * size
        used = set()
        while remaining > 0 and len(real) < max_real:
            size = remaining if len(real) == max_real - 1 else rng.randint(1, remaining)
            lam = Fraction(rng.randint(-4, 4))
            if lam in used:
                continue
            used.add(lam)
            real.append((lam, rand_partition(rng, size)))
            remaining -= size
        if remaining == 0 and (real or cpx):
            return SpectralData(real=real, complex=cpx)


def dominated_partition(rng, upper, max_parts):
    """A random partition majorized by ``upper`` with at most max_parts parts."""
    parts = list(upper.parts)
    for _ in range(rng.randint(0, 2 * upper.total())):
        cand = list(parts)
        if max_parts <= 1:
            break
        j = rng.randint(1, min(len(cand), max_parts - 1))
        if j == len(cand):
            cand.append(0)
        i = rng.randint(0, j - 1)
        cand[i] -= 1
        cand[j] += 1
        if cand[i] <= 0:
            continue
        if all(a >= b for a, b in zip(cand, cand[1:])):
            parts = [p for p in cand if p]
    return Partition(parts)


def dominating_partition(rng, lower):
    """A random partition that majorizes ``lower`` (same total)."""
    parts = list(lower.parts)
    for _ in range(rng.randint(0, 2 * lower.total())):
        cand = list(parts)
        if len(cand) < 2:
            break
        j = rng.randint(1, len(cand) - 1)
        i = rng.randint(0, j - 1)
        cand[i] += 1
        cand[j] -= 1
        cand = [p for p in cand if p]
        if all(a >= b for a, b in zip(cand, cand[1:])):
            parts = cand
    return Partition(parts)


def conjugated_pair(rng, r, m):
    """A random feedback-group conjugate of the canonical pair."""
    n = r.total()
    Fp, Gp = p_brunovsky_pair(r, m)
    P = rand_invertible(rng, n, -2, 2)
    Qm = rand_invertible(rng, m, -2, 2)
    R = RatMatrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)])
    G = P @ Gp @ Qm.inverse()
    F = (P @ Fp - G @ R) @ P.inverse()
    return F, G


def feasible_instance(rng, n, extra_inputs=0, allow_complex=True):
    """(F, G, sd) with the class of sd assignable for (F, G)."""
    sd = rand_spectral(rng, n, allow_complex=allow_complex)
    degs = degrees_desc(sd)
    k = dominated_partition(rng, degs, max_parts=min(n, len(degs) + 2))
    m = len(k) + extra_inputs
    F, G = conjugated_pair(rng, k.conjugate(), m)
    return F, G, sd


def random_member(rng, A, r, lo=-3, hi=3, tries=200):
    """A random full-column-rank member generated by an integer top block."""
    d = A.rows
    for _ in range(tries):
        P1 = RatMatrix([[Fraction(rng.randint(lo, hi)) for _ in range(d)] for _ in range(r.part(1))])
        obs = assemble(A, r, P1)
        if obs.P.rank() == d:
            return obs
    raise AssertionError("could not sample a member; is the set empty?")


def random_invertible_centralizer(rng, structures, lo=-3, hi=3, tries=200):
    n_params = centralizer_dimension_weyr(structures)
    for _ in range(tries):
        params = [Fraction(rng.randint(lo, hi)) for _ in range(n_params)]
        Y = centralizer_element(structures, params)
        try:
            Y.inverse()
            return Y
        except SingularMatrixError:
            continue
    raise AssertionError("could not sample an invertible centralizer element")


# worked five-dimensional instance used across the suite
def worked_example():
    F = RatMatrix(
        [
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )
    G = RatMatrix([[0, 0], [0, 0], [0, 0], [0, 1], [1, 0]])
    sd = SpectralData(real=[(0, Partition([2, 1]))], complex=[(0, 1, Partition([1]))])
    return F, G, sd
