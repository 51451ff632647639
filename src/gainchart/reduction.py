"""Reduction of a truncated observability matrix to its unique orbit normal form.

The acting group is the invertible centralizer of the (block) Weyr state
matrix. For one Weyr block with characteristic w_1 >= ... >= w_m (t_i below
is w_{m-i+1}), an element Y is block upper triangular with m x m blocks Y_ij
of shape w_i x w_j, every Y_ij is the top-left corner of Y_{1, j-i+1}, and
the first block row Y_1j splits into parameter cells D^(j)_{i,k} of shape
(t_i - t_{i-1}) x (t_k - t_{k-1}) that are free exactly when k >= i - j + 1
and zero below.

Normal-form pattern on the selected rows of the top block, per column group j
(widths split by the nondecreasing t_i): group 1 is lower block-triangular
with identity diagonal; group j >= 2 has zeros in row bands i <= j and in
every band cell with k >= i - j + 1. All remaining entries, including the
rows not selected by the multi-index, are the free parameters; their count is
(rows x scalar columns) minus the centralizer dimension of the block.

The pattern pins exactly the parameter cells of Y, so R1 = P1 Y is solved
for Y one column group at a time. Group j of R1 is P1[:, group 1] Y_1j +
K_j, with K_j = sum_{a=2..j} P1[:, group a] Y_aj, and each Y_aj with a >= 2
is a corner of Y_{1, j-a+1}, solved for an earlier j. Let B be the rows of
P1 listed by ``seq`` and M_i the stage-i minor: the first t_i rows of B over
the first t_i cells of column group 1. Column band k of Y_1j is zero below
its first t_i rows, i = k + j - 1 <= m, and the pinned cells of R1 in that
band are the same first t_i rows of B Y:

    Y_1j[:t_i, band k] = M_i^-1 (T_jk - K_j[seq[:t_i], band k])

T_1k is the identity on the rows of stage k, so band k of Y_11 is read off
the columns of M_k^-1; T_jk is zero for j >= 2. The system is therefore
block triangular with the stage minors on its diagonal: they are the only
solves (at most m), each for just the rows of M_i^-1 it keeps, and the
solution is unique.

A singular minor raises NotInChartError naming the first singular stage,
which is the same for every point of the orbit: the stage-i minor of P1 Y is
M_i times the leading t_i x t_i corner of Y_11, block upper triangular with
invertible diagonal blocks when Y is invertible. An elimination that moves P1
by centralizer factors stage by stage therefore first fails at that stage
too. Matrices are packed rows (see ``canonical``): a conjugate-pair block
solves the same system over Q[i], solving and multiplying through
``ws.expand``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .canonical import WeyrStructure
from .errors import NotInChartError
from .linalg import RatMatrix, SingularMatrixError
from .observability import (
    TruncObsMatrix,
    assemble,
    check_multi_index,
    member_cells,
    stage_rows,
    stage_slab,
)
from .partitions import Partition


@cache
def _kept_rows(h: int, t: int) -> RatMatrix:
    """Unit rows 0, h, ..., h (t - 1) of size h t, the ones a stage minor's solve keeps."""
    return RatMatrix.identity(h * t).take_rows(range(0, h * t, h))


def reduce_block_cells(P1: RatMatrix, ws: WeyrStructure, seq: tuple):
    """One block's top block (packed rows) in normal form, R1 = P1 Y.

    Y, an element of the block's centralizer group, is solved band by band
    through the stage minors of ``seq``, whose shape ``reduce`` has checked.
    Raises NotInChartError when one of them is singular.
    """
    h, m, w = ws.h, ws.m, ws.weyr
    solved = [None]  # packed M_i^-1 at index i; an empty stage repeats the minor before it
    for stage in range(1, m + 1):
        t = ws.tau(stage)
        if t == ws.tau(stage - 1):
            solved.append(solved[-1])
            continue
        try:
            solved.append(stage_slab(P1, ws, seq[:t], t).solve(_kept_rows(h, t)))
        except SingularMatrixError:
            raise NotInChartError(f"stage {stage} minor of the multi-index is singular") from None

    head, picked = P1.take_cols(range(h * w.part(1))), [q - 1 for q in seq]
    first_row, groups = [], []  # packed Y_11 .. Y_1m and the column groups of R1
    for j in range(1, m + 1):
        if j > 1:
            # K_j = sum_a P1[:, group a] Y_aj over a = 2..j, with Y_aj a corner of Y_1,j-a+1
            lower = RatMatrix.vstack(
                first_row[j - a].take_rows(range(w.part(a))).take_cols(range(h * w.part(j)))
                for a in range(2, j + 1)
            )
            known = P1.take_cols(range(h * w.part(1), h * sum(w.parts[:j]))) @ ws.expand(lower)
        bands = []
        for k in range(1, m - j + 2):
            t0, t1 = ws.tau(k - 1), ws.tau(k)
            if t0 == t1:
                continue
            i = k + j - 1
            if j == 1:
                cells = solved[i].take_cols(range(h * t0, h * t1))
            else:
                rhs = known.take_rows(picked[: ws.tau(i)]).take_cols(range(h * t0, h * t1))
                cells = -(solved[i] @ ws.expand(rhs))
            pad = RatMatrix.zeros(w.part(1) - cells.rows, cells.cols)
            bands.append(RatMatrix.vstack([cells, pad]))
        first_row.append(RatMatrix.hstack(bands))
        group = head @ ws.expand(first_row[-1])
        groups.append(group + known if j > 1 else group)
    return RatMatrix.hstack(groups)


@dataclass(frozen=True)
class ReducedForm:
    obs: TruncObsMatrix
    mi: tuple
    params: tuple  # free coordinates read in the documented fill order


def block_free_slots(ws: WeyrStructure, seq: tuple, nrows: int) -> tuple:
    """Free-entry descriptors of one block's normal form, in fill order.

    Yields ('cell', rows, c0, c1) for the cells of the selected stage rows
    outside the centralizer band (cell columns c0..c1-1 of the top block) and
    ('row', (i,), 0, s) for each unselected row. Order: column group j
    ascending, then stage i, then column band k, then unselected rows.
    Memoized on the Weyr characteristic, not the eigenvalue: one entry per shape.
    """
    return _free_slots(ws.weyr, tuple(seq), nrows)


@cache
def _free_slots(weyr: Partition, seq: tuple, nrows: int) -> tuple:
    ws = WeyrStructure(weyr.conjugate(), False)
    m = ws.m
    slots = []
    for j in range(1, m + 1):
        base = sum(ws.weyr.parts[: j - 1])  # column group j starts at this cell column
        for i in range(1, m + 1):
            rows = stage_rows(seq, ws, i)
            # the free band k >= i - j + 1 runs to the last column band: its complement is a prefix
            for k in range(1, i - j + 1):
                c0, c1 = base + ws.tau(k - 1), base + ws.tau(k)
                if rows and c0 < c1:
                    slots.append(("cell", rows, c0, c1))
    return (*slots, *(("row", (i,), 0, ws.s) for i in range(1, nrows + 1) if i not in seq))


def read_block_params(R1: RatMatrix, ws: WeyrStructure, seq: tuple):
    """Free coordinates of a reduced top block (packed rows), in fill order."""
    h = ws.h
    out = []
    for _, rows, c0, c1 in block_free_slots(ws, seq, R1.rows):
        for i in rows:
            out.extend(R1.rowlist(i - 1)[h * c0 : h * c1])
    return out


def fill_block_params(ws: WeyrStructure, seq: tuple, nrows: int, values) -> RatMatrix:
    """Inverse of read_block_params: build a reduced top block (packed rows).

    ``values`` is an iterator of Fractions; pattern cells get identity/zero
    entries, free slots consume coordinates.
    """
    h = ws.h
    out = [[0] * (h * ws.s) for _ in range(nrows)]
    for q, i in enumerate(seq):  # group 1 is the identity on the selected rows, in order
        out[i - 1][h * q] = 1
    for _, rows, c0, c1 in block_free_slots(ws, seq, nrows):
        for i in rows:
            out[i - 1][h * c0 : h * c1] = [next(values) for _ in range(h * (c1 - c0))]
    return RatMatrix(out)


def reduce(obs: TruncObsMatrix, structures, mi) -> ReducedForm:
    """Blockwise normal form of a member over a mixed spectrum.

    The reduced member is obs.P @ Y exactly, for some invertible element Y of
    the centralizer of the state matrix. ``mi`` holds one row-index sequence
    per spectral block.
    """
    mi = tuple(map(tuple, mi))
    check_multi_index(mi, structures, obs.P1.rows)
    r1_blocks = []
    params = []
    for P1, ws, seq in zip(member_cells(obs, structures), structures, mi):
        R1 = reduce_block_cells(P1, ws, seq)
        r1_blocks.append(R1)
        params.extend(read_block_params(R1, ws, seq))
    reduced = assemble(obs.A, obs.r, RatMatrix.hstack(r1_blocks))
    return ReducedForm(obs=reduced, mi=mi, params=tuple(params))
