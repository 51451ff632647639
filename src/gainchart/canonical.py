"""Real Weyr canonical forms and the dimensions of their centralizers.

Spectral input is pre-factored: each real eigenvalue and each conjugate
complex pair comes with its Segre partition (Jordan block sizes). Complex
pairs are realized over R by 2x2 rotation-style cells, so each such block of
total Segre size s occupies a 2s x 2s real slab.

Block data is stored as packed rows, the real rows the block occupies: one
scalar per cell for a real block, the 1x2 slab (x, y) for a pair cell
x + iy, which acts as the real 2x2 block [[x, y], [-y, x]]
(``WeyrStructure.expand``). Cell coordinates below are in units of cells;
a pair block scales column offsets by h = 2.

Block order in assembled matrices always follows the SpectralData order (real
eigenvalues first, then pairs); charts and reduced forms depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import VerificationError
from .linalg import RatMatrix, _reduced, diamond
from .partitions import Partition
from .poly import InvariantChain, UniPoly


def _spectral_entry(parts, segre) -> tuple:
    """One checked entry, (lam, segre) or (a, b, segre) with b made positive."""
    if any(isinstance(v, float) for v in parts):
        raise TypeError("float eigenvalues are not allowed")
    re, *im = (Fraction(v) for v in parts)
    if im == [0]:
        raise ValueError("complex pair must have nonzero imaginary part")
    segre = segre if isinstance(segre, Partition) else Partition(segre)
    if not segre:
        raise ValueError("empty Segre partition")
    return (re, *map(abs, im), segre)


@dataclass(frozen=True)
class SpectralData:
    """Factored description of a similarity class.

    real: (eigenvalue, segre) pairs; complex: (a, b, segre) triples for the
    conjugate pair a + bi, a - bi with b normalized positive.
    """

    real: tuple
    complex: tuple

    def __init__(self, real=(), complex=()):
        real_n = [_spectral_entry((lam,), segre) for lam, segre in real]
        cpx_n = [_spectral_entry((a, b), segre) for a, b, segre in complex]
        if len({lam for lam, _ in real_n}) != len(real_n):
            raise ValueError("repeated real eigenvalue")
        if len({(a, b) for a, b, _ in cpx_n}) != len(cpx_n):
            raise ValueError("repeated complex pair")
        object.__setattr__(self, "real", tuple(real_n))
        object.__setattr__(self, "complex", tuple(cpx_n))

    @property
    def n(self) -> int:
        return sum(s.total() for _, s in self.real) + 2 * sum(
            s.total() for _, _, s in self.complex
        )


@dataclass(frozen=True)
class WeyrStructure:
    """Per-eigenvalue (or per-pair) block data of a real Weyr form."""

    segre: Partition
    is_complex: bool
    eigenvalue: Fraction | None = None
    pair: tuple | None = None

    @cached_property
    def weyr(self) -> Partition:
        return self.segre.conjugate()

    @property
    def m(self) -> int:
        """Depth: number of Weyr levels (largest Segre part)."""
        return len(self.weyr)

    @cached_property
    def _taus(self) -> tuple:
        return (0, *reversed(self.weyr.parts))

    def tau(self, i: int) -> int:
        """t_i = w_{m-i+1} for i = 0..m; nondecreasing, t_0 = 0, t_m = w_1."""
        return self._taus[i]

    @property
    def s(self) -> int:
        """Cell-level block size (number of scalar columns over the field)."""
        return self.weyr.total()

    @property
    def h(self) -> int:
        """Packed scalars per cell: 1 for a real block, 2 for a pair."""
        return 2 if self.is_complex else 1

    @property
    def real_cols(self) -> int:
        return self.h * self.s

    def expand(self, rows: RatMatrix) -> RatMatrix:
        """The real matrix of packed rows: the diamond expansion for a pair."""
        return diamond(rows) if self.is_complex else rows


def weyr_structures(sd: SpectralData) -> list[WeyrStructure]:
    out = [
        WeyrStructure(segre=s, is_complex=False, eigenvalue=lam)
        for lam, s in sd.real
    ]
    out.extend(
        WeyrStructure(segre=s, is_complex=True, pair=(a, b))
        for a, b, s in sd.complex
    )
    return out


def chain_block(ws: WeyrStructure, levels) -> RatMatrix:
    """Real block with eigenvalue cells on the diagonal and unit cells [I; 0]
    joining each level to the next: the Weyr block for levels ws.weyr, a
    Jordan block of size k for k levels of width one."""
    h = ws.h
    eig = ws.pair if ws.is_complex else (ws.eigenvalue,)
    rows = [[0] * (h * sum(levels)) for _ in range(sum(levels))]
    off = 0
    for i, wi in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else 0
        for t in range(wi):
            rows[off + t][h * (off + t) : h * (off + t + 1)] = eig
            if t < nxt:
                rows[off + t][h * (off + wi + t)] = 1
        off += wi
    return ws.expand(RatMatrix(rows))


def weyr_from_spectral(sd: SpectralData):
    """Real Weyr canonical form and its block structures, in sd order."""
    structures = weyr_structures(sd)
    blocks = [chain_block(ws, ws.weyr.parts) for ws in structures]
    return RatMatrix.block_diag(*blocks), structures


# ---------------------------------------------------------------------------
# invariant polynomials of a spectral description
# ---------------------------------------------------------------------------


def invariant_chain(sd: SpectralData) -> InvariantChain:
    """The chain a_1 | ... | a_n determined by the factored spectral data.

    Each factor, s - lam or s^2 - 2a s + a^2 + b^2 for the pair a + bi, is
    built as integers over one denominator, so the products are integer
    convolutions.
    """
    factors = [(UniPoly._of((-lam.numerator, lam.denominator), lam.denominator), segre)
               for lam, segre in sd.real]
    for aa, bb, segre in sd.complex:
        d = lcm(aa.denominator, bb.denominator)
        a, b = aa.numerator * (d // aa.denominator), bb.numerator * (d // bb.denominator)
        factors.append((UniPoly._of(*_reduced([a * a + b * b, -2 * a * d, d * d], d * d)), segre))
    depth = len(degrees_desc(sd))
    top = []
    for i in range(1, depth + 1):
        poly = UniPoly.one()
        for f, segre in factors:
            if e := segre.part(i):
                poly = poly * f.power(e)
        top.append(poly)
    chain = [UniPoly.one()] * (sd.n - depth) + list(reversed(top))
    return InvariantChain(tuple(chain))


def centralizer_dimension(chain: InvariantChain) -> int:
    """dim of the commuting algebra, degree-weighted form: sum (2k-1) deg a_{n-k+1}."""
    degs = chain.degrees_desc()
    return sum((2 * k - 1) * d for k, d in enumerate(degs, start=1))


def centralizer_dimension_weyr(structures) -> int:
    """Same dimension from the Weyr characteristics: sum of squared levels, a pair's twice."""
    return sum(ws.h * sum(w * w for w in ws.weyr) for ws in structures)


def checked_centralizer_dimension(chain: InvariantChain, structures) -> int:
    """Centralizer dimension N, with the two formulas checked to agree."""
    N = centralizer_dimension(chain)
    if N != centralizer_dimension_weyr(structures):
        raise VerificationError("centralizer dimension formulas disagree")
    return N


def weyr_union(sd: SpectralData) -> Partition:
    """Union of all per-eigenvalue Weyr characteristics, pairs counted twice."""
    acc = Partition()
    for _, s in sd.real:
        acc = acc.union(s.conjugate())
    for _, _, s in sd.complex:
        w = s.conjugate()
        acc = acc.union(w).union(w)
    return acc


def degrees_desc(sd: SpectralData) -> Partition:
    """Nonincreasing invariant-polynomial degree sequence of the class.

    Degree i sums the i-th Segre parts over all eigenvalues, pairs counted
    twice; its conjugate is weyr_union(sd).
    """
    acc = Partition()
    for _, s in sd.real:
        acc = acc + s
    for _, _, s in sd.complex:
        acc = acc + s + s
    return acc
