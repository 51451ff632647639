"""Reduction of a truncated observability matrix to its unique orbit normal form.

The acting group is the invertible centralizer of the (block) Weyr state
matrix. Elementary factors come in two kinds: type I carries invertible
blocks down the replicated diagonal, type II is the identity plus a single
free parameter block together with its structural copies.

The sweep mirrors the uniqueness proof: for each stage l (in the multi-index
order) normalize the stage's pivot minor to the identity with a type I
factor, then annihilate every entry of the stage's rows that the normal form
requires to vanish with type II factors. Matrices are packed rows (see
``canonical``): a factor E acts as M @ ws.expand(E), so a conjugate-pair
block runs the identical sweep on real rows, as over Q[i]. ``reduce``
returns the reduced form only; it is obs.P @ Y for the invertible
centralizer element Y that the product of the factors makes.

Normal-form pattern on the selected rows of the top block, per column group j
(widths split by the nondecreasing t_i): group 1 is lower block-triangular
with identity diagonal; group j >= 2 has zeros in row bands i <= j and in
every band cell with k >= i - j + 1. All remaining entries, including the
rows not selected by the multi-index, are the free parameters; their count is
(rows x scalar columns) minus the centralizer dimension of the block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import WeyrStructure, band, centralizer_cells_from_blocks
from .errors import NotInChartError
from .linalg import RatMatrix, SingularMatrixError
from .observability import (
    AdmissibleSeq,
    MultiIndex,
    TruncObsMatrix,
    assemble,
    member_cells,
)


def elementary_type_i(ws: WeyrStructure, slot: int, T):
    """Type I factor: block T at diagonal slot, identity elsewhere (packed rows)."""
    blocks = {}
    for k in range(1, ws.m + 1):
        size = ws.tau(k) - ws.tau(k - 1)
        if size == 0:
            continue
        blocks[(1, k, k)] = T if k == slot else ws.identity(size)
    return centralizer_cells_from_blocks(ws, blocks)


def elementary_type_ii(ws: WeyrStructure, j: int, i: int, k: int, D):
    """Type II factor: identity diagonal plus an off-diagonal band block at (j, i, k)."""
    if (j, k) == (1, i):
        raise ValueError("type II slot on the diagonal")
    blocks = {(j, i, k): D}
    for t in range(1, ws.m + 1):
        size = ws.tau(t) - ws.tau(t - 1)
        if size:
            blocks[(1, t, t)] = ws.identity(size)
    return centralizer_cells_from_blocks(ws, blocks)


def _col_span(ws: WeyrStructure, j: int, k: int):
    """Cell-column range of cell block (j, k) inside the block's s cell columns."""
    base = sum(ws.weyr.part(t) for t in range(1, j))
    return base + ws.tau(k - 1), base + ws.tau(k)


def _stage_rows(seq: AdmissibleSeq, ws: WeyrStructure, stage: int):
    return seq.order[ws.tau(stage - 1) : ws.tau(stage)]


def reduce_block_cells(P1: RatMatrix, ws: WeyrStructure, seq: AdmissibleSeq):
    """Sweep one block's top block (packed rows) to normal form.

    Returns the packed R1 = P1 Y for the product Y of the elementary factors
    applied, an element of the block's centralizer group. Raises
    NotInChartError when a stage minor of ``seq`` is singular.
    """
    seq.validate_shape(ws, P1.rows)
    h = ws.h
    M = P1
    m = ws.m
    for stage in range(1, m + 1):
        rows = [i - 1 for i in _stage_rows(seq, ws, stage)]
        if not rows:
            continue
        c0, c1 = _col_span(ws, 1, stage)
        try:
            inv = ws.expand(M.take_rows(rows).take_cols(range(h * c0, h * c1))).inverse()
        except SingularMatrixError:
            raise NotInChartError(
                f"stage {stage} minor of the multi-index is singular"
            ) from None
        M = M @ ws.expand(elementary_type_i(ws, stage, inv.tolists()[::h]))
        # clear the stage's band cells in every column group, except the pivot
        clear = [
            (j, k) for j in range(1, m + 1) for k in band(ws, j, stage) if (j, k) != (1, stage)
        ]
        for j, k in clear:
            d0, d1 = _col_span(ws, j, k)
            blk = [[-x for x in M.rowlist(i)[h * d0 : h * d1]] for i in rows]
            if any(any(row) for row in blk):
                M = M @ ws.expand(elementary_type_ii(ws, j, stage, k, blk))
    return M


@dataclass(frozen=True)
class ReducedForm:
    obs: TruncObsMatrix
    mi: MultiIndex
    params: tuple  # free coordinates read in the documented fill order


def block_free_slots(ws: WeyrStructure, seq: AdmissibleSeq, nrows: int):
    """Free-entry descriptors of one block's normal form, in fill order.

    Yields ('cell', rows, c0, c1) for the cells of the selected stage rows
    outside the centralizer band (cell columns c0..c1-1 of the top block) and ('row', (i,), 0, s) for each unselected row. Order: column
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


def read_block_params(R1: RatMatrix, ws: WeyrStructure, seq: AdmissibleSeq):
    """Free coordinates of a reduced top block (packed rows), in fill order."""
    h = ws.h
    out = []
    for _, rows, c0, c1 in block_free_slots(ws, seq, R1.rows):
        for i in rows:
            out.extend(R1.rowlist(i - 1)[h * c0 : h * c1])
    return out


def fill_block_params(ws: WeyrStructure, seq: AdmissibleSeq, nrows: int, values) -> RatMatrix:
    """Inverse of read_block_params: build a reduced top block (packed rows).

    ``values`` is an iterator of Fractions; pattern cells get identity/zero
    entries, free slots consume coordinates.
    """
    h = ws.h
    out = ws.zeros(nrows, ws.s)
    for stage in range(1, ws.m + 1):
        c0, _ = _col_span(ws, 1, stage)
        for t, i in enumerate(_stage_rows(seq, ws, stage)):
            out[i - 1][h * (c0 + t)] = 1
    for _, rows, c0, c1 in block_free_slots(ws, seq, nrows):
        for i in rows:
            out[i - 1][h * c0 : h * c1] = [next(values) for _ in range(h * (c1 - c0))]
    return RatMatrix(out)


def reduce(obs: TruncObsMatrix, structures, mi: MultiIndex) -> ReducedForm:
    """Blockwise normal form of a member over a mixed spectrum.

    The reduced member is obs.P @ Y exactly, for some invertible element Y of
    the centralizer of the state matrix.
    """
    if len(mi) != len(structures):
        raise ValueError("multi-index count does not match spectral blocks")
    r1_blocks = []
    params = []
    for P1, ws, seq in zip(member_cells(obs, structures), structures, mi):
        R1 = reduce_block_cells(P1, ws, seq)
        r1_blocks.append(R1)
        params.extend(read_block_params(R1, ws, seq))
    reduced = assemble(obs.A, obs.r, RatMatrix.hstack(r1_blocks))
    return ReducedForm(obs=reduced, mi=tuple(mi), params=tuple(params))
