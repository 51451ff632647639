"""Truncated observability matrices and admissible index sequences.

A member is generated by a top block P_1 with r_1 rows: block i+1 is the
first r_{i+1} rows of block i multiplied by the state matrix on the right.
Membership additionally requires full column rank, which ``assemble`` leaves
to its callers.

Admissible sequences certify a chart. A sequence is a tuple of 1-based row
indices of P_1, and a multi-index holds one per spectral block. Stage j is
the prefix of length t_j (t_j = w_{m-j+1} for the Weyr characteristic),
each batch of new indices increases, and the stage rows restricted to the
first t_j cell columns are invertible. Blocks are read as packed rows (see
``canonical``); for a conjugate-pair block invertibility over Q[i] is full
rank of the diamond-expanded real minor. The smallest sequence of a member
is read stage by stage, each stage off the pivots of its own elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import WeyrStructure
from .errors import GainchartError
from .linalg import RatMatrix, _cut, _decimal
from .partitions import Partition


@dataclass(frozen=True)
class TruncObsMatrix:
    A: RatMatrix
    r: Partition
    P1: RatMatrix
    P: RatMatrix


def assemble(A: RatMatrix, r: Partition, P1: RatMatrix) -> TruncObsMatrix:
    """Build the full matrix from its generating top block (rank unchecked)."""
    if not A.is_square():
        raise ValueError("state matrix must be square")
    d = A.rows
    if P1.rows != r.part(1) or P1.cols != d:
        raise ValueError(
            f"top block must be {r.part(1)} x {d}, got {P1.rows} x {P1.cols}"
        )
    blocks = [P1]
    current = P1
    for i in range(2, len(r) + 1):
        current = current.take_rows(range(r.part(i))) @ A
        blocks.append(current)
    return TruncObsMatrix(A=A, r=r, P1=P1, P=RatMatrix.vstack(blocks))


# ---------------------------------------------------------------------------
# admissible sequences
# ---------------------------------------------------------------------------


def check_sequence(seq: tuple, ws: WeyrStructure, nrows: int):
    """Raise ValueError unless ``seq`` is t_m distinct rows in 1..nrows, batches increasing."""
    if len(seq) != ws.tau(ws.m):
        raise ValueError(f"index sequence must have {ws.tau(ws.m)} entries, got {len(seq)}")
    if len(set(seq)) != len(seq):
        raise ValueError("repeated row index in admissible sequence")
    for idx in seq:
        if not 1 <= idx <= nrows:
            raise ValueError(f"row index {_cut(_decimal(idx))} out of range 1..{nrows}")
    for j in range(1, ws.m + 1):
        batch = stage_rows(seq, ws, j)
        if any(a >= b for a, b in zip(batch, batch[1:])):
            raise ValueError("each stage batch must be strictly increasing")


def check_multi_index(mi: tuple, structures, nrows: int):
    """Raise ValueError unless ``mi`` holds one well-shaped sequence per spectral block."""
    if len(mi) != len(structures):
        raise ValueError(f"multi-index has {len(mi)} components, expected {len(structures)}")
    for seq, ws in zip(mi, structures):
        check_sequence(seq, ws, nrows)


def stage_rows(seq: tuple, ws: WeyrStructure, j: int) -> tuple:
    """The rows stage j adds to the sequence: stage j is its prefix of length t_j."""
    return seq[ws.tau(j - 1) : ws.tau(j)]


def stage_slab(P1: RatMatrix, ws: WeyrStructure, rows, t: int) -> RatMatrix:
    """1-based ``rows`` of P1 over the first h t packed columns, expanded: on the
    prefix of length t = t_j of a sequence, its stage-j minor."""
    return ws.expand(P1.take_rows(i - 1 for i in rows).take_cols(range(ws.h * t)))


def is_admissible(P1: RatMatrix, ws: WeyrStructure, seq: tuple) -> bool:
    """Re-verify every stage minor of a candidate sequence (packed rows)."""
    check_sequence(seq, ws, P1.rows)
    for j in range(1, ws.m + 1):
        t = ws.tau(j)
        if stage_slab(P1, ws, seq[:t], t).rank() != ws.h * t:
            return False
    return True


def find_admissible(P1: RatMatrix, ws: WeyrStructure) -> tuple:
    """Greedy stage-wise lexicographically smallest admissible sequence.

    Each stage orders the rows as [already chosen; the rest by index] and
    takes the pivots of the transposed expanded slab. A pair row is
    independent of the rows before it over Q[i] exactly when its first
    expanded row is a pivot, since their span is closed under multiplication
    by i. A sequence exists for every member; failure to complete a stage
    means the block is not a member (or the caller passed inconsistent data).
    """
    h = ws.h
    order = []
    for j in range(1, ws.m + 1):
        t = ws.tau(j)
        rows = order + [i for i in range(1, P1.rows + 1) if i not in order]
        pivots = set(stage_slab(P1, ws, rows, t).transpose().pivots())
        if any(h * q not in pivots for q in range(len(order))):
            raise GainchartError("previously selected rows became dependent")
        batch = [i for q, i in enumerate(rows) if q >= len(order) and h * q in pivots]
        if len(order) + len(batch) < t:
            raise GainchartError(
                "no admissible index sequence: top block is not generating"
            )
        order += batch[: t - len(order)]
    return tuple(order)


def member_cells(obs: TruncObsMatrix, structures) -> list:
    """Per-block top blocks of a member as packed rows: its column slabs."""
    out = []
    off = 0
    for ws in structures:
        out.append(obs.P1.take_cols(range(off, off + ws.real_cols)))
        off += ws.real_cols
    if off != obs.P1.cols:
        raise ValueError("block widths do not cover the matrix")
    return out


def find_multi_index(obs: TruncObsMatrix, structures) -> tuple:
    """Stage-wise lexicographically smallest multi-index of a member."""
    return tuple(
        find_admissible(cells, ws)
        for cells, ws in zip(member_cells(obs, structures), structures)
    )
