"""Reduction of a truncated observability matrix to its unique orbit normal form.

The acting group is the invertible centralizer of the (block) Weyr state
matrix. Elementary factors come in two kinds: type I carries invertible
blocks down the replicated diagonal, type II is the identity plus a single
free parameter block together with its structural copies.

The sweep mirrors the uniqueness proof: for each stage l (in the multi-index
order) normalize the stage's pivot minor to the identity with a type I
factor, then annihilate every entry of the stage's rows that the normal form
requires to vanish with type II factors. A conjugate-pair block runs the
identical sweep over Gaussian-rational cells.

Normal-form pattern on the selected rows of the top block, per column group j
(widths split by the nondecreasing t_i): group 1 is lower block-triangular
with identity diagonal; group j >= 2 has zeros in row bands i <= j and in
every band cell with k >= i - j + 1. All remaining entries, including the
rows not selected by the multi-index, are the free parameters; their count is
(rows x scalar columns) minus the centralizer dimension of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import (
    WeyrStructure,
    band,
    block_cells_to_real,
    centralizer_cells_from_blocks,
)
from .errors import GainchartError
from .gaussian import GaussRat, fm_identity, fm_inverse, fm_mul, fm_zeros
from .linalg import RatMatrix
from .observability import (
    AdmissibleSeq,
    MultiIndex,
    TruncObsMatrix,
    assemble,
    member_cells,
    real_cells_roundtrip,
)


class AdmissibilityViolation(GainchartError):
    """A stage minor the multi-index certifies turned out singular."""

    exit_code = 4


def elementary_type_i(ws: WeyrStructure, slot: int, T_cells):
    """Type I factor: block T at diagonal slot, identity elsewhere (cells)."""
    blocks = {}
    for k in range(1, ws.m + 1):
        size = ws.tau(k) - ws.tau(k - 1)
        if size == 0:
            continue
        blocks[(1, k, k)] = T_cells if k == slot else fm_identity(size, ws.field_one)
    return centralizer_cells_from_blocks(ws, blocks)


def elementary_type_ii(ws: WeyrStructure, j: int, i: int, k: int, D_cells):
    """Type II factor: identity diagonal plus an off-diagonal band block at (j, i, k)."""
    if (j, k) == (1, i):
        raise ValueError("type II slot on the diagonal")
    blocks = {(j, i, k): D_cells}
    for t in range(1, ws.m + 1):
        size = ws.tau(t) - ws.tau(t - 1)
        if size:
            blocks[(1, t, t)] = fm_identity(size, ws.field_one)
    return centralizer_cells_from_blocks(ws, blocks)


def _col_span(ws: WeyrStructure, j: int, k: int):
    """Scalar-column range of cell block (j, k) inside the block's s columns."""
    base = sum(ws.weyr.part(t) for t in range(1, j))
    return base + ws.tau(k - 1), base + ws.tau(k)


def _stage_rows(seq: AdmissibleSeq, ws: WeyrStructure, stage: int):
    return seq.order[ws.tau(stage - 1) : ws.tau(stage)]


def reduce_block_cells(P1_cells, ws: WeyrStructure, seq: AdmissibleSeq):
    """Sweep one block's top-block cells to normal form.

    Returns (R1_cells, Y_cells) with R1 = P1 Y and Y in the block's
    centralizer group.
    """
    seq.validate_shape(ws, len(P1_cells))
    one = ws.field_one
    M = [list(row) for row in P1_cells]
    Y = fm_identity(ws.s, one)
    m = ws.m

    def apply(E):
        nonlocal M, Y
        M = fm_mul(M, E)
        Y = fm_mul(Y, E)

    for stage in range(1, m + 1):
        rows = _stage_rows(seq, ws, stage)
        if not rows:
            continue
        c0, c1 = _col_span(ws, 1, stage)
        pivot = [M[i - 1][c0:c1] for i in rows]
        inv = fm_inverse(pivot)
        if inv is None:
            raise AdmissibilityViolation(
                f"stage {stage} minor of the multi-index is singular"
            )
        apply(elementary_type_i(ws, stage, inv))
        # clear the stage's band cells in every column group, except the pivot
        clear = [
            (j, k) for j in range(1, m + 1) for k in band(ws, j, stage) if (j, k) != (1, stage)
        ]
        for j, k in clear:
            d0, d1 = _col_span(ws, j, k)
            blk = [[-M[i - 1][c] for c in range(d0, d1)] for i in rows]
            if any(any(x for x in row) for row in blk):
                apply(elementary_type_ii(ws, j, stage, k, blk))
    return M, Y


@dataclass(frozen=True)
class ReducedForm:
    obs: TruncObsMatrix
    mi: MultiIndex
    params: tuple  # free coordinates read in the documented fill order


def block_free_slots(ws: WeyrStructure, seq: AdmissibleSeq, nrows: int):
    """Free-entry descriptors of one block's normal form, in fill order.

    Yields ('cell', rows, c0, c1) for the cells of the selected stage rows
    outside the centralizer band (columns c0..c1-1 of the top block over
    cells) and ('row', (i,), 0, s) for each unselected row. Order: column
    group j ascending, then stage i, then column band k, then unselected rows.
    """
    m = ws.m
    slots = []
    for j in range(1, m + 1):
        for i in range(1, m + 1):
            rows = _stage_rows(seq, ws, i)
            # the band runs to the last column band: its complement is a prefix
            for k in range(1, band(ws, j, i).start):
                c0, c1 = _col_span(ws, j, k)
                if rows and c0 < c1:
                    slots.append(("cell", rows, c0, c1))
    selected = set(seq.order)
    for i in range(1, nrows + 1):
        if i not in selected:
            slots.append(("row", (i,), 0, ws.s))
    return slots


def block_free_param_count(ws: WeyrStructure, nrows: int) -> int:
    """rows x scalar columns minus the block's centralizer dimension."""
    per_cell = 2 if ws.is_complex else 1
    cells = nrows * ws.s - sum(w * w for w in ws.weyr)
    return per_cell * cells


def read_block_params(R1_cells, ws: WeyrStructure, seq: AdmissibleSeq):
    """Free coordinates of a reduced top block, in fill order."""
    out = []
    for _, rows, c0, c1 in block_free_slots(ws, seq, len(R1_cells)):
        for i in rows:
            for c in range(c0, c1):
                z = R1_cells[i - 1][c]
                if ws.is_complex:
                    out.extend((z.re, z.im))
                else:
                    out.append(z)
    return out


def fill_block_params(ws: WeyrStructure, seq: AdmissibleSeq, nrows: int, values):
    """Inverse of read_block_params: build reduced top-block cells.

    ``values`` is an iterator of Fractions; pattern cells get identity/zero
    entries, free slots consume coordinates.
    """
    one = ws.field_one
    cells = fm_zeros(nrows, ws.s, one)
    for stage in range(1, ws.m + 1):
        rows = _stage_rows(seq, ws, stage)
        c0, _ = _col_span(ws, 1, stage)
        for t, i in enumerate(rows):
            cells[i - 1][c0 + t] = one
    for _, rows, c0, c1 in block_free_slots(ws, seq, nrows):
        for i in rows:
            for c in range(c0, c1):
                if ws.is_complex:
                    re = next(values)
                    im = next(values)
                    cells[i - 1][c] = GaussRat(re, im)
                else:
                    cells[i - 1][c] = Fraction(next(values))
    return cells


def reduce(obs: TruncObsMatrix, structures, mi: MultiIndex):
    """Blockwise normal form of a member over a mixed spectrum.

    Returns (ReducedForm, Y) with reduced = obs.P @ Y exactly and Y an
    invertible element of the centralizer of the state matrix.
    """
    if len(mi) != len(structures):
        raise ValueError("multi-index count does not match spectral blocks")
    cells = member_cells(obs, structures)
    r1_blocks = []
    y_blocks = []
    params = []
    for block_cells, ws, seq in zip(cells, structures, mi):
        R1_cells, Y_cells = reduce_block_cells(block_cells, ws, seq)
        r1_blocks.append(RatMatrix(real_cells_roundtrip(ws, R1_cells)))
        y_blocks.append(block_cells_to_real(ws, Y_cells))
        params.extend(read_block_params(R1_cells, ws, seq))
    R1 = RatMatrix.hstack(r1_blocks)
    Y = RatMatrix.block_diag(*y_blocks)
    reduced = assemble(obs.A, obs.r, R1, require_full_rank=False)
    return ReducedForm(obs=reduced, mi=tuple(mi), params=tuple(params)), Y
