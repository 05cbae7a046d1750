"""CAPS: communication-optimal parallel Strassen (Ballard et al., arXiv:1202.3173).

The classical distributed matmul (SUMMA, :mod:`repro.matmul.summa`) moves
``Θ(n²/√P)`` words per processor — optimal for algorithms doing ``Θ(n³)``
arithmetic, but not for Strassen.  CAPS runs Strassen's recursion *in
parallel* over the processor pool and attains the Strassen-specific lower
bound ``Θ(n²/P^{2/ω})`` words with ``ω = log2 7 ≈ 2.807``: asymptotically
less bandwidth than any classical algorithm.

Traversal, following the paper:

``BFS`` step (enough processors: group size divisible by 7)
    All seven Strassen products are computed *simultaneously*: the group
    splits into 7 subgroups, each taking one product ``M_i = T_i @ S_i``
    at half the matrix dimensions.  One data redistribution down, one up.

``DFS`` step (few processors / non-divisible group)
    The seven products are computed *sequentially* by the whole group at
    half the dimensions; needs only a constant factor more memory and no
    processor split.

``bcast`` leaf (odd dimensions or tiny blocks)
    The remaining ``k x n`` operand ``B`` is broadcast and each rank
    multiplies its rows of ``A`` locally — the base case that also absorbs
    ragged (odd) dimensions.

``local`` leaf (group of one)
    A sequential Strassen multiply (:func:`strassen_multiply`).

Data layout invariant: at a node over group ``g`` the rank at group position
``pos`` owns the rows :func:`owned_intervals(m, g, pos) <owned_intervals>` of
the ``m x k`` operand ``A`` (and of the output ``C``) and the rows
``owned_intervals(k, g, pos)`` of ``B`` — full column widths.  For even row
counts the intervals pair a chunk of the top half with the same chunk of the
bottom half, so every Strassen quadrant combination ``T_i``/``S_i`` is a
purely local slice computation; redistributions then move only the interval
intersections between the parent and child layouts.

Message/word accounting is exact and replayed (without data) by
:func:`caps_count_ledger`; the runtime and the ledger share the single-pair
move helpers below, so measured traces match the model *by construction* —
the property asserted by ``validate_matmul``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distsim.collectives import broadcast
from ..distsim.vmpi import Communicator, run_spmd
from ..kernels.flops import FlopCounter, FlopFormulas
from ..layouts.grid import ProcessGrid
from ..machines.model import MachineModel
from .base import MatmulBackend, PdgemmResult

#: Exponent of Strassen's recursion, ``log2 7``.
OMEGA = float(np.log2(7.0))

#: Sequential Strassen switches to classical GEMM at or below this dimension.
STRASSEN_CUTOFF = 8

#: Distributed DFS steps stop splitting below this dimension (the remaining
#: product is finished by the broadcast leaf).
DFS_MIN = 8

Interval = Tuple[int, int]

# --------------------------------------------------------------------------
# Strassen tables.  M_i = T_i @ S_i with the canonical seven products:
#   M1=(A11+A22)(B11+B22)  M2=(A21+A22)B11      M3=A11(B12-B22)
#   M4=A22(B21-B11)        M5=(A11+A12)B22      M6=(A21-A11)(B11+B12)
#   M7=(A12-A22)(B21+B22)
# and C11=M1+M4-M5+M7, C12=M3+M5, C21=M2+M4, C22=M1-M2+M3+M6.
# Each T/S entry lists (quadrant, sign) terms; quadrants are (row, col).
_TA = (
    (((1, 1), 1), ((2, 2), 1)),
    (((2, 1), 1), ((2, 2), 1)),
    (((1, 1), 1),),
    (((2, 2), 1),),
    (((1, 1), 1), ((1, 2), 1)),
    (((2, 1), 1), ((1, 1), -1)),
    (((1, 2), 1), ((2, 2), -1)),
)
_SB = (
    (((1, 1), 1), ((2, 2), 1)),
    (((1, 1), 1),),
    (((1, 2), 1), ((2, 2), -1)),
    (((2, 1), 1), ((1, 1), -1)),
    (((2, 2), 1),),
    (((1, 1), 1), ((1, 2), 1)),
    (((2, 1), 1), ((2, 2), 1)),
)
_CM: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {
    (1, 1): ((0, 1), (3, 1), (4, -1), (6, 1)),
    (1, 2): ((2, 1), (4, 1)),
    (2, 1): ((1, 1), (3, 1)),
    (2, 2): ((0, 1), (1, -1), (2, 1), (5, 1)),
}


def strassen_multiply(
    A: np.ndarray, B: np.ndarray, flops: Optional[FlopCounter] = None
) -> np.ndarray:
    """Sequential Strassen multiply ``A @ B`` with exact flop accounting.

    Recurses while all three dimensions are even and above
    :data:`STRASSEN_CUTOFF`; the base case charges classical ``2 m n k``
    multiply/adds, each recursion level charges its quadrant additions.
    Also usable as the ``local_multiply`` hook of the trailing update.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    m, k = A.shape
    n = B.shape[1]
    if m % 2 or k % 2 or n % 2 or min(m, k, n) <= STRASSEN_CUTOFF:
        if flops is not None:
            flops.add_muladds(FlopFormulas.gemm(m, n, k))
        return A @ B
    m2, k2, n2 = m // 2, k // 2, n // 2
    quadA = {
        (1, 1): A[:m2, :k2], (1, 2): A[:m2, k2:],
        (2, 1): A[m2:, :k2], (2, 2): A[m2:, k2:],
    }
    quadB = {
        (1, 1): B[:k2, :n2], (1, 2): B[:k2, n2:],
        (2, 1): B[k2:, :n2], (2, 2): B[k2:, n2:],
    }
    M = []
    for i in range(7):
        Ti = _combine(quadA, _TA[i], flops)
        Si = _combine(quadB, _SB[i], flops)
        M.append(strassen_multiply(Ti, Si, flops))
    C = np.empty((m, n))
    C[:m2, :n2] = _accumulate(M, _CM[(1, 1)], flops)
    C[:m2, n2:] = _accumulate(M, _CM[(1, 2)], flops)
    C[m2:, :n2] = _accumulate(M, _CM[(2, 1)], flops)
    C[m2:, n2:] = _accumulate(M, _CM[(2, 2)], flops)
    return C


def _combine(quads, terms, flops):
    """Signed sum of operand quadrants per one Strassen T/S table row."""
    (q0, s0) = terms[0]
    out = quads[q0] if s0 == 1 else -quads[q0]
    if len(terms) == 1:
        return np.array(out) if out is quads[q0] else out
    out = np.array(out)
    for (q, s) in terms[1:]:
        if s == 1:
            out += quads[q]
        else:
            out -= quads[q]
        if flops is not None:
            out_adds = out.size
            flops.add_muladds(out_adds)
    return out


def _accumulate(M, terms, flops):
    """Signed sum of Strassen products per one C-quadrant table row."""
    (i0, s0) = terms[0]
    out = np.array(M[i0]) if s0 == 1 else -M[i0]
    for (i, s) in terms[1:]:
        if s == 1:
            out += M[i]
        else:
            out -= M[i]
        if flops is not None:
            flops.add_muladds(out.size)
    return out


# --------------------------------------------------------------------------
# Row-interval layout helpers (shared by the runtime and the count ledger).

def _chunk(r: int, g: int, pos: int) -> Interval:
    """Rows ``[start, stop)`` of an ``r``-row slab assigned to position ``pos``
    of ``g`` (balanced contiguous split, first ``r % g`` chunks one larger)."""
    base, extra = divmod(r, g)
    start = pos * base + min(pos, extra)
    return (start, start + base + (1 if pos < extra else 0))


def owned_intervals(r: int, g: int, pos: int) -> List[Interval]:
    """Global row intervals of an ``r``-row operand owned by group position
    ``pos`` of ``g`` under the CAPS layout.

    For even ``r`` the position owns *paired halves* — the same chunk of the
    top half and of the bottom half — so all four quadrants of the operand
    are contiguous local slices and Strassen's ``T_i``/``S_i`` combinations
    need no communication.  Odd ``r`` (only reachable at ``bcast`` leaves)
    degrades to a single balanced chunk; a group of one owns everything.
    """
    if g == 1:
        return [(0, r)] if r else []
    if r % 2 == 0:
        s, e = _chunk(r // 2, g, pos)
        if e <= s:
            return []
        h = r // 2
        return [(s, e), (h + s, h + e)]
    s, e = _chunk(r, g, pos)
    return [(s, e)] if e > s else []


def _total(ivals: Sequence[Interval]) -> int:
    return sum(e - s for s, e in ivals)


def _intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Sorted pairwise intersection of two interval lists."""
    out = []
    for (s1, e1) in a:
        for (s2, e2) in b:
            s, e = max(s1, s2), min(e1, e2)
            if s < e:
                out.append((s, e))
    out.sort()
    return out


def _local_slice(base: Sequence[Interval], s: int, e: int) -> Tuple[int, int]:
    """Local row range of global rows ``[s, e)`` in an array whose rows are
    the concatenation of ``base`` (the interval must lie inside one piece)."""
    off = 0
    for (bs, be) in base:
        if bs <= s and e <= be:
            return off + (s - bs), off + (e - bs)
        off += be - bs
    raise AssertionError(f"rows [{s}, {e}) not contained in layout {list(base)}")


# Single-pair move predicates: given one (sender, receiver) pair, which row
# intervals travel.  The runtime sends/receives exactly these intervals and
# the ledger counts exactly these intervals, so measured == modelled.

def _bfs_dn_move(g, gc, m2, k2, p, d):
    q = d % gc
    ivT = _intersect([_chunk(m2, g, p)], owned_intervals(m2, gc, q))
    ivS = _intersect([_chunk(k2, g, p)], owned_intervals(k2, gc, q))
    return ivT, ivS


def _bfs_up_move(g, gc, m2, d, p):
    return _intersect(owned_intervals(m2, gc, d % gc), [_chunk(m2, g, p)])


def _dfs_dn_move(g, m2, k2, p, q):
    ivT = _intersect([_chunk(m2, g, p)], owned_intervals(m2, g, q))
    ivS = _intersect([_chunk(k2, g, p)], owned_intervals(k2, g, q))
    return ivT, ivS


def _dfs_up_move(g, m2, q, p):
    return _intersect(owned_intervals(m2, g, q), [_chunk(m2, g, p)])


def node_kind(g: int, m: int, k: int, n: int) -> str:
    """Traversal step taken at a node: ``local``/``bfs``/``dfs``/``bcast``."""
    if g == 1:
        return "local"
    even = m % 2 == 0 and k % 2 == 0 and n % 2 == 0
    if even and g % 7 == 0:
        return "bfs"
    if even and min(m, k, n) >= DFS_MIN:
        return "dfs"
    return "bcast"


# --------------------------------------------------------------------------
# The SPMD recursion.

def _caps_rank(comm, group, path, m, k, n, Aloc, Bloc):
    """One rank's share of ``C = A @ B`` at one recursion node.

    ``Aloc`` holds rows ``owned_intervals(m, g, pos)`` of ``A`` (full width
    ``k``), ``Bloc`` rows ``owned_intervals(k, g, pos)`` of ``B`` (full width
    ``n``); the returned local ``C`` holds rows ``owned_intervals(m, g, pos)``
    (full width ``n``) — the output inherits ``A``'s layout at every level.
    """
    g = len(group)
    pos = group.index(comm.rank)
    kind = node_kind(g, m, k, n)
    scratch = FlopCounter()

    if kind == "local":
        C = strassen_multiply(Aloc, Bloc, flops=scratch)
        comm.charge_counter(scratch)
        return C

    if kind == "bcast":
        # Gather all of B via per-owner broadcasts, multiply my rows of A.
        Bfull = np.zeros((k, n))
        for q in range(g):
            ivals = owned_intervals(k, g, q)
            if not _total(ivals):
                continue
            val = yield from broadcast(
                comm,
                Bloc if q == pos else None,
                root=group[q],
                group=group,
                tag=("caps", path, "B", q),
                channel="any",
            )
            off = 0
            for (s, e) in ivals:
                Bfull[s:e] = val[off:off + (e - s)]
                off += e - s
        C = strassen_multiply(Aloc, Bfull, flops=scratch)
        comm.charge_counter(scratch)
        return C

    m2, k2, n2 = m // 2, k // 2, n // 2
    ts, te = _chunk(m2, g, pos)
    ks, ke = _chunk(k2, g, pos)
    h, hb = te - ts, ke - ks

    # Paired-halves layout: quadrants are local slices.
    quadA = {
        (1, 1): Aloc[:h, :k2], (1, 2): Aloc[:h, k2:],
        (2, 1): Aloc[h:, :k2], (2, 2): Aloc[h:, k2:],
    }
    quadB = {
        (1, 1): Bloc[:hb, :n2], (1, 2): Bloc[:hb, n2:],
        (2, 1): Bloc[hb:, :n2], (2, 2): Bloc[hb:, n2:],
    }

    if kind == "bfs":
        gc = g // 7
        myi, myq = divmod(pos, gc)

        # My shares of all seven T_i (rows [ts, te)) and S_i (rows [ks, ke)).
        Tsh = [_combine(quadA, _TA[i], scratch) for i in range(7)]
        Ssh = [_combine(quadB, _SB[i], scratch) for i in range(7)]
        comm.charge_counter(scratch)

        # ---- down: redistribute T_i/S_i to subgroup i's child layout.
        stash = None
        for d in range(g):
            i = d // gc
            ivT, ivS = _bfs_dn_move(g, gc, m2, k2, pos, d)
            if not ivT and not ivS:
                continue
            parts = tuple(
                [Tsh[i][s - ts:e - ts] for (s, e) in ivT]
                + [Ssh[i][s - ks:e - ks] for (s, e) in ivS]
            )
            if d == pos:
                stash = parts
            else:
                comm.send(group[d], parts,
                          tag=("caps", path, "dn", pos), channel="any")
        del Tsh, Ssh

        myT = owned_intervals(m2, gc, myq)
        myS = owned_intervals(k2, gc, myq)
        Tmine = np.zeros((_total(myT), k2))
        Smine = np.zeros((_total(myS), n2))
        for p in range(g):
            ivT, ivS = _bfs_dn_move(g, gc, m2, k2, p, pos)
            if not ivT and not ivS:
                continue
            if p == pos:
                parts = stash
            else:
                parts = yield from comm.co_recv(
                    group[p], tag=("caps", path, "dn", p))
            idx = 0
            for (s, e) in ivT:
                ls, le = _local_slice(myT, s, e)
                Tmine[ls:le] = parts[idx]
                idx += 1
            for (s, e) in ivS:
                ls, le = _local_slice(myS, s, e)
                Smine[ls:le] = parts[idx]
                idx += 1

        # ---- recurse: subgroup myi computes M_myi at half dimensions.
        sub = group[myi * gc:(myi + 1) * gc]
        Mi = yield from _caps_rank(
            comm, sub, path + (myi,), m2, k2, n2, Tmine, Smine)

        # ---- up: redistribute every M_i back to the parent chunk layout.
        upstash = None
        for p in range(g):
            iv = _bfs_up_move(g, gc, m2, pos, p)
            if not iv:
                continue
            parts = []
            for (s, e) in iv:
                ls, le = _local_slice(myT, s, e)
                parts.append(Mi[ls:le])
            parts = tuple(parts)
            if p == pos:
                upstash = parts
            else:
                comm.send(group[p], parts,
                          tag=("caps", path, "up", pos), channel="any")

        Ms = [np.zeros((h, n2)) for _ in range(7)]
        for d in range(g):
            i = d // gc
            iv = _bfs_up_move(g, gc, m2, d, pos)
            if not iv:
                continue
            if d == pos:
                parts = upstash
            else:
                parts = yield from comm.co_recv(
                    group[d], tag=("caps", path, "up", d))
            for j, (s, e) in enumerate(iv):
                Ms[i][s - ts:e - ts] = parts[j]

    else:  # kind == "dfs": seven sequential products over the whole group.
        Ms = [np.zeros((h, n2)) for _ in range(7)]
        myT = owned_intervals(m2, g, pos)
        myS = owned_intervals(k2, g, pos)
        for i in range(7):
            sub_path = path + (("d", i),)
            Ti = _combine(quadA, _TA[i], scratch)
            Si = _combine(quadB, _SB[i], scratch)
            comm.charge_counter(scratch)

            stash = None
            for q in range(g):
                ivT, ivS = _dfs_dn_move(g, m2, k2, pos, q)
                if not ivT and not ivS:
                    continue
                parts = tuple(
                    [Ti[s - ts:e - ts] for (s, e) in ivT]
                    + [Si[s - ks:e - ks] for (s, e) in ivS]
                )
                if q == pos:
                    stash = parts
                else:
                    comm.send(group[q], parts,
                              tag=("caps", sub_path, "dn", pos), channel="any")

            Tmine = np.zeros((_total(myT), k2))
            Smine = np.zeros((_total(myS), n2))
            for p in range(g):
                ivT, ivS = _dfs_dn_move(g, m2, k2, p, pos)
                if not ivT and not ivS:
                    continue
                if p == pos:
                    parts = stash
                else:
                    parts = yield from comm.co_recv(
                        group[p], tag=("caps", sub_path, "dn", p))
                idx = 0
                for (s, e) in ivT:
                    ls, le = _local_slice(myT, s, e)
                    Tmine[ls:le] = parts[idx]
                    idx += 1
                for (s, e) in ivS:
                    ls, le = _local_slice(myS, s, e)
                    Smine[ls:le] = parts[idx]
                    idx += 1

            Mi = yield from _caps_rank(
                comm, group, sub_path, m2, k2, n2, Tmine, Smine)

            upstash = None
            for p in range(g):
                iv = _dfs_up_move(g, m2, pos, p)
                if not iv:
                    continue
                parts = []
                for (s, e) in iv:
                    ls, le = _local_slice(myT, s, e)
                    parts.append(Mi[ls:le])
                parts = tuple(parts)
                if p == pos:
                    upstash = parts
                else:
                    comm.send(group[p], parts,
                              tag=("caps", sub_path, "up", pos), channel="any")

            for q in range(g):
                iv = _dfs_up_move(g, m2, q, pos)
                if not iv:
                    continue
                if q == pos:
                    parts = upstash
                else:
                    parts = yield from comm.co_recv(
                        group[q], tag=("caps", sub_path, "up", q))
                for j, (s, e) in enumerate(iv):
                    Ms[i][s - ts:e - ts] = parts[j]

    # Combine the seven products into my paired-halves rows of C.
    C = np.empty((2 * h, n))
    C[:h, :n2] = _accumulate(Ms, _CM[(1, 1)], scratch)
    C[:h, n2:] = _accumulate(Ms, _CM[(1, 2)], scratch)
    C[h:, :n2] = _accumulate(Ms, _CM[(2, 1)], scratch)
    C[h:, n2:] = _accumulate(Ms, _CM[(2, 2)], scratch)
    comm.charge_counter(scratch)
    return C


# --------------------------------------------------------------------------
# Exact message/word ledger (replays the recursion over index ranges only).

@lru_cache(maxsize=None)
def _subtree_counts(g: int, m: int, k: int, n: int) -> Tuple[int, float]:
    """(messages, words) of the whole CAPS subtree at one node, all ranks."""
    kind = node_kind(g, m, k, n)
    if kind == "local":
        return 0, 0.0
    if kind == "bcast":
        msgs, words = 0, 0.0
        for q in range(g):
            rows = _total(owned_intervals(k, g, q))
            if rows:
                msgs += g - 1
                words += float(g - 1) * rows * n
        return msgs, words
    m2, k2, n2 = m // 2, k // 2, n // 2
    if kind == "bfs":
        gc = g // 7
        msgs, words = 0, 0.0
        for p in range(g):
            for d in range(g):
                if d == p:
                    continue
                ivT, ivS = _bfs_dn_move(g, gc, m2, k2, p, d)
                if ivT or ivS:
                    msgs += 1
                    words += float(_total(ivT)) * k2 + float(_total(ivS)) * n2
                iv = _bfs_up_move(g, gc, m2, d, p)
                if iv:
                    msgs += 1
                    words += float(_total(iv)) * n2
        cm, cw = _subtree_counts(gc, m2, k2, n2)
        return msgs + 7 * cm, words + 7 * cw
    # dfs: identical redistribution for each of the seven products.
    msgs, words = 0, 0.0
    for p in range(g):
        for q in range(g):
            if q == p:
                continue
            ivT, ivS = _dfs_dn_move(g, m2, k2, p, q)
            if ivT or ivS:
                msgs += 1
                words += float(_total(ivT)) * k2 + float(_total(ivS)) * n2
            iv = _dfs_up_move(g, m2, q, p)
            if iv:
                msgs += 1
                words += float(_total(iv)) * n2
    cm, cw = _subtree_counts(g, m2, k2, n2)
    return 7 * (msgs + cm), 7.0 * (words + cw)


def caps_count_ledger(m: int, k: int, n: int, P: int) -> Dict[str, float]:
    """Exact per-channel message/word counts of a CAPS ``pdgemm`` run.

    All CAPS traffic travels on the ``any`` channel (its rank groups are not
    grid rows/columns).  Returns the same 8-key dict shape as
    :func:`repro.models.solve_model.solve_message_counts`.
    """
    msgs, words = _subtree_counts(int(P), int(m), int(k), int(n))
    return {
        "messages_col": 0,
        "messages_row": 0,
        "messages_any": int(msgs),
        "total_messages": int(msgs),
        "words_col": 0.0,
        "words_row": 0.0,
        "words_any": float(words),
        "total_words": float(words),
    }


# --------------------------------------------------------------------------
# Backend object.

class CapsBackend(MatmulBackend):
    """Strassen backend: CAPS standalone, Strassen local trailing update.

    Inside the LU driver the trailing update keeps the seed's broadcast
    skeleton (its channel attribution is part of the paper's CALU ledger) and
    swaps the local Schur product for :func:`strassen_multiply`; the full
    BFS/DFS CAPS recursion is exercised by the standalone :meth:`pdgemm`.
    """

    name = "caps"
    local_multiply = staticmethod(strassen_multiply)

    def pdgemm(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: Optional[np.ndarray] = None,
        grid: Optional[ProcessGrid] = None,
        block_size: int = 16,
        machine: Optional[MachineModel] = None,
    ) -> PdgemmResult:
        """Compute ``C += A @ B`` with the CAPS Strassen recursion.

        ``grid`` supplies only the processor count ``P = grid.size`` — CAPS
        distributes operands by row intervals, not block-cyclically, and
        ``block_size`` plays no role (accepted for interface symmetry).
        """
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        m, k = A.shape
        kb, n = B.shape
        if kb != k:
            raise ValueError(f"inner dimensions disagree: {A.shape} @ {B.shape}")
        P = 1 if grid is None else grid.size

        A_sh = {}
        B_sh = {}
        for r in range(P):
            ra = owned_intervals(m, P, r)
            rb = owned_intervals(k, P, r)
            A_sh[r] = np.concatenate([A[s:e] for (s, e) in ra], axis=0) \
                if ra else np.zeros((0, k))
            B_sh[r] = np.concatenate([B[s:e] for (s, e) in rb], axis=0) \
                if rb else np.zeros((0, n))

        def rank_fn(comm: Communicator):
            return (
                yield from _caps_rank(
                    comm, range(P), (), m, k, n,
                    A_sh[comm.rank], B_sh[comm.rank],
                )
            )

        trace = run_spmd(P, rank_fn, machine=machine)

        Cout = np.zeros((m, n)) if C is None else np.array(C, dtype=np.float64)
        if Cout.shape != (m, n):
            raise ValueError(f"C has shape {Cout.shape}, expected {(m, n)}")
        for r in range(P):
            off = 0
            local = trace.results[r]
            for (s, e) in owned_intervals(m, P, r):
                Cout[s:e] += local[off:off + (e - s)]
                off += e - s
        return PdgemmResult(C=Cout, trace=trace)
