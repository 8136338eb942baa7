"""SWMR atomicity, checked exactly as defined in Section 2.2 of the paper.

A partial run satisfies atomicity iff there is an assignment of a write index
``idx(rd)`` to every complete read such that:

1. *(validity)* the read returned ``val_{idx(rd)}`` — in particular some
   write (or the initial ⊥, index 0) produced the returned value;
2. *(no stale reads)* if ``rd`` succeeds a complete ``wr_k`` then
   ``idx(rd) ≥ k``;
3. *(no reads from the future)* if ``idx(rd) = k ≥ 1`` then ``wr_k``
   precedes ``rd`` or is concurrent with it — equivalently ``wr_k`` was
   invoked before ``rd`` responded;
4. *(read monotonicity)* if ``rd2`` succeeds ``rd1`` then
   ``idx(rd2) ≥ idx(rd1)``.

Because distinct writes may store equal values, the checker searches for a
*consistent assignment* rather than judging reads one at a time: reads are
processed in a linear extension of precedence and greedily given the smallest
feasible index.  Greedy-minimal is complete here — lowering one read's index
never shrinks a later read's feasible set — so failure of the greedy pass is
failure of every assignment, and the verdict pinpoints which clause broke.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecificationError
from repro.spec.history import History, OperationRecord


@dataclass(slots=True)
class AtomicityVerdict:
    """Outcome of an atomicity check.

    ``ok`` is True when a consistent assignment exists; otherwise
    ``violated_property`` names the first clause (1–4) that cannot be
    satisfied for ``culprit``, and ``explanation`` is human-readable.
    ``assignment`` maps each complete read to its chosen write index when
    the check succeeds.
    """

    ok: bool
    violated_property: int | None = None
    culprit: OperationRecord | None = None
    explanation: str = ""
    assignment: dict[Any, int] = field(default_factory=dict)


def check_swmr_atomicity(history: History) -> AtomicityVerdict:
    """Check the four-property SWMR atomicity definition on ``history``."""
    if not history.single_writer():
        raise SpecificationError(
            "this checker implements the paper's single-writer definition; "
            "use repro.spec.linearizability for multi-writer histories"
        )
    return _greedy_swmr_pass(history, 1, name_bound=False)


def _greedy_swmr_pass(history: History, k: int, *, name_bound: bool) -> AtomicityVerdict:
    """The greedy pass, for any ``k ≥ 1``: atomicity is k-atomicity at 1.

    Serves :func:`check_swmr_atomicity` and
    :func:`repro.consistency.kat.check_k_atomicity`; see the latter's module
    for why ``k > 1`` tracks placement *segments*, which at ``k = 1`` are the
    paper's indices.  ``name_bound`` only words clauses 2 and 4: k-atomicity
    verdicts name their bound, atomicity verdicts speak the paper's language.
    """
    values = history.written_values()  # values[j] == val_j, values[0] == ⊥
    writes = history.writes()
    reads = sorted(history.reads(complete_only=True), key=_linear_extension_key)
    bound = f" beyond the k={k} bound" if name_bound else ""

    # The single writer is sequential, so write invocation steps are strictly
    # increasing and the complete writes form a prefix with strictly
    # increasing response steps.  Both precedence scans below ("which writes
    # precede this read", "which writes does this read precede") therefore
    # reduce to binary searches over these two arrays instead of O(R·W)
    # pairwise ``precedes`` calls.
    write_invocations = [w.invocation_step for w in writes]
    write_responses = [w.response_step for w in writes if w.complete]

    # value → ascending write indices, so the candidate scan is O(1) per
    # read.  Falls back to a linear scan when a value is unhashable.  The
    # index is only a *prefilter*: candidacy itself stays defined by ``==``
    # (below), because dict lookup takes an identity shortcut that ``==``
    # does not (NaN is the classic case) and the other spec checkers
    # compare with ``==``.
    try:
        by_value: dict[Any, list[int]] | None = {}
        for j, val in enumerate(values):
            by_value.setdefault(val, []).append(j)
    except TypeError:
        by_value = None

    assigned: dict[Any, int] = {}
    # Reads are processed in response-step order (a linear extension), so
    # "the highest segment a preceding read was placed in" is a
    # prefix-maximum query over the response steps processed so far.
    # ``seg(rd)`` is the write gap the greedy placed ``rd`` in —
    # ``seg ∈ [idx, idx + k − 1]``, minimal; at ``k = 1`` it is ``idx``.
    done_responses: list[int] = []
    done_prefix_max: list[int] = []

    for read in reads:
        prefiltered: Any = None
        if by_value is not None:
            try:
                prefiltered = by_value.get(read.value, [])
            except TypeError:
                prefiltered = None  # unhashable read value: scan everything
        if prefiltered is None:
            prefiltered = range(len(values))
        candidates = [j for j in prefiltered if values[j] == read.value]
        if not candidates:
            return AtomicityVerdict(
                ok=False,
                violated_property=1,
                culprit=read,
                explanation=(
                    f"{read.op_id} returned {read.value!r}, which no write ever wrote "
                    f"(written values: {values[1:]!r}, initial ⊥)"
                ),
            )

        # Property 2: ``wr_j precedes rd`` iff ``wr_j`` is complete and its
        # response step is below the read's invocation step — a prefix of
        # ``write_responses``.
        write_floor = bisect_left(write_responses, read.invocation_step)

        # Property 3: wr_j must precede rd or be concurrent with it, i.e.
        # ¬(rd precedes wr_j) ⇔ ``wr_j`` was invoked at or before the read's
        # response step — a prefix of ``write_invocations``.  Using the same
        # strict/non-strict step comparisons as the precedence predicate
        # keeps the checker consistent with Wing–Gong at tied step numbers.
        ceiling = bisect_right(write_invocations, read.response_step)

        # Property 4: reads preceding this one are exactly the processed
        # reads whose response step is below this invocation step; they
        # force this read's segment at or above their own.
        prefix_seg = 0
        position = bisect_left(done_responses, read.invocation_step)
        if position:
            prefix_seg = done_prefix_max[position - 1]

        # The read's segment must be ≥ base (preceding writes and reads) and
        # ≤ idx + k − 1 (at most k − 1 writes ahead of the value returned),
        # so feasibility needs idx ≥ base − (k − 1).
        base = write_floor if write_floor >= prefix_seg else prefix_seg
        floor = base - (k - 1)
        if floor < 0:
            floor = 0
        at = bisect_left(candidates, floor)
        if at < len(candidates) and candidates[at] <= ceiling:
            choice = candidates[at]  # smallest feasible index (greedy-minimal)
            assigned[read.op_id] = choice
            seg = choice if choice >= base else base
            done_responses.append(read.response_step)
            done_prefix_max.append(
                seg if not done_prefix_max or seg > done_prefix_max[-1]
                else done_prefix_max[-1]
            )
            continue

        # Diagnose which clause failed, most specific first.
        below_ceiling = [j for j in candidates if j <= ceiling]
        if not below_ceiling:
            return AtomicityVerdict(
                ok=False,
                violated_property=3,
                culprit=read,
                explanation=(
                    f"{read.op_id} returned {read.value!r}, but every write of that value "
                    f"was invoked only after the read responded (read from the future)"
                ),
            )
        write_limit = write_floor - (k - 1)
        if write_limit < 0:
            write_limit = 0
        if all(j < write_limit for j in below_ceiling):
            return AtomicityVerdict(
                ok=False,
                violated_property=2,
                culprit=read,
                explanation=(
                    f"{read.op_id} returned {read.value!r} (indices {below_ceiling}) although "
                    f"it succeeds wr_{write_floor}: stale read{bound}"
                ),
            )
        placed = (
            f"was already placed in segment {prefix_seg}" if name_bound
            else f"already returned index {prefix_seg}"
        )
        return AtomicityVerdict(
            ok=False,
            violated_property=4,
            culprit=read,
            explanation=(
                f"{read.op_id} returned {read.value!r} (indices {below_ceiling}) although a "
                f"preceding read {placed}: new/old inversion{bound}"
            ),
        )

    return AtomicityVerdict(ok=True, assignment=assigned)


def check_atomicity(history: History) -> AtomicityVerdict:
    """Atomicity for any writer population, dispatching on the history.

    Single-writer histories go through the paper's four-property SWMR
    checker unchanged.  Multi-writer histories — the SWMR→MWMR
    transformation, native multi-writer protocols, and the combined view of
    sharded composites — fall back to the general linearizability search,
    which *is* the atomicity definition once the single-writer structure is
    gone (for read/write registers the two notions coincide).
    """
    if history.single_writer():
        return check_swmr_atomicity(history)
    from repro.spec.linearizability import is_linearizable

    ok = is_linearizable(history)
    return AtomicityVerdict(
        ok=ok,
        explanation="" if ok else "no linearization of the multi-writer history exists",
    )


def _linear_extension_key(read: OperationRecord) -> tuple[int, int]:
    """Sort key giving a linear extension of precedence among complete reads.

    If ``rd1`` precedes ``rd2`` then ``rd1.response_step < rd2.invocation_step
    <= rd2.response_step``, so ordering by response step is a valid linear
    extension.
    """
    assert read.response_step is not None
    return (read.response_step, read.invocation_step)
