"""Web construction: refine IL values into live ranges.

A *web* is a maximal set of definitions and uses of one value connected
through def->use reachability; each web is one
:class:`~repro.ir.live_range.LiveRange` — the unit of both cluster
partitioning (Section 3.5) and register allocation (Section 3.4).  Distinct
webs of the same source-level value are independent and may land in
different clusters or registers.

Implementation: a sparse reaching-definitions pass keyed by value id, then
union-find merging every pair of definitions that reach a common use.  The
pass is a block worklist in which a definition propagates into a successor
only where its value is live-in (liveness from
:class:`~repro.compiler.liveness.LivenessInfo`).  The pruning is exact: a
definition reaches a use only along a redefinition-free path ending at that
use, and the value is live at every point of such a path, so every use sees
the same definitions as in a dense pass over all values.  Values that are
live into the program entry (e.g. the stack pointer, which is never
defined) get a synthetic entry definition so they still form a web; a use
that no definition reaches (only possible in unreachable code) gets one
too.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from repro.compiler.liveness import LivenessInfo
from repro.ir.live_range import LiveRangeSet
from repro.ir.program import ILProgram
from repro.ir.values import ILValue

#: Synthetic uid for the program-entry definition of value id ``vid``.
def _entry_def(vid: int) -> int:
    return -1 - vid


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(self, key: tuple[int, int]) -> tuple[int, int]:
        parent = self.parent.setdefault(key, key)
        if parent != key:
            root = self.find(parent)
            self.parent[key] = root
            return root
        return key

    def union(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _reaching_defs(program: ILProgram) -> dict[str, dict[int, set[int]]]:
    """Definitions reaching each block entry, per live-in value id."""
    cfg = program.cfg
    labels = cfg.labels()
    liveness = LivenessInfo(program)
    live_in = {label: [v.vid for v in liveness.live_in(label)] for label in labels}

    # Only the last definition of a value in a block can leave the block;
    # earlier ones are resolved by the in-block walk.
    gen: dict[str, dict[int, set[int]]] = {}
    for label in labels:
        last: dict[int, set[int]] = {}
        for instr in cfg.block(label).instructions:
            if instr.dest is not None:
                last[instr.dest.vid] = {instr.uid}
        gen[label] = last

    reach_in: dict[str, dict[int, set[int]]] = {label: {} for label in labels}
    entry = cfg.entry_label
    if entry is not None:
        reach_in[entry] = {vid: {_entry_def(vid)} for vid in live_in[entry]}

    order = cfg.reverse_postorder()
    reachable = set(order)
    order += [label for label in labels if label not in reachable]
    worklist = deque(order)
    queued = set(order)
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        rin = reach_in[label]
        block_gen = gen[label]
        for succ in cfg.block(label).succ_labels:
            sin = reach_in[succ]
            grew = False
            for vid in live_in[succ]:
                out = block_gen.get(vid) or rin.get(vid)
                if out and not out <= sin.setdefault(vid, set()):
                    sin[vid] |= out
                    grew = True
            if grew and succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return reach_in


def build_live_ranges(program: ILProgram) -> LiveRangeSet:
    """Construct the live ranges (webs) of ``program``.

    Requires ``program.renumber()`` to have run (instruction uids valid).
    """
    cfg = program.cfg
    labels = cfg.labels()
    reach_in = _reaching_defs(program)

    # Walk blocks, merging defs that reach a common use.
    uf = _UnionFind()
    use_attach: dict[tuple[int, ILValue], tuple[int, int]] = {}
    real_defs: set[tuple[int, int]] = set()
    for label in labels:
        block = cfg.block(label)
        current: dict[int, set[int]] = dict(reach_in[label])
        for instr in block.instructions:
            for src in instr.srcs:
                defs = current.get(src.vid)
                if not defs:
                    defs = {_entry_def(src.vid)}
                    current[src.vid] = defs
                keys = [(d, src.vid) for d in defs]
                for other in keys[1:]:
                    uf.union(keys[0], other)
                use_attach[(instr.uid, src)] = keys[0]
            if instr.dest is not None:
                current[instr.dest.vid] = {instr.uid}
                real_defs.add((instr.uid, instr.dest.vid))
                uf.find((instr.uid, instr.dest.vid))  # register in the forest

    # Build LiveRange objects, one per union-find root.
    lrs = LiveRangeSet()
    by_value = {v.vid: v for v in program.values}
    root_to_lr: dict[tuple[int, int], "object"] = {}
    web_counter: dict[int, int] = defaultdict(int)

    def lr_for_root(root: tuple[int, int]):
        if root not in root_to_lr:
            value = by_value[root[1]]
            index = web_counter[value.vid]
            web_counter[value.vid] += 1
            root_to_lr[root] = lrs.new_range(value, web_index=index)
        return root_to_lr[root]

    for def_key in sorted(real_defs):
        uid, vid = def_key
        lr = lr_for_root(uf.find(def_key))
        lr.def_uids.add(uid)
        lrs.def_map[(uid, by_value[vid])] = lr

    for (uid, value), key in sorted(use_attach.items(), key=lambda kv: (kv[0][0], kv[0][1].vid)):
        lr = lr_for_root(uf.find(key))
        lr.use_uids.add(uid)
        lrs.use_map[(uid, value)] = lr

    # Webs of a value with a single web keep the bare value name.
    for lr in lrs:
        if web_counter[lr.value.vid] == 1:
            lr.web_index = 0
    return lrs


def designate_global_candidates(
    lrs: LiveRangeSet, extra_values: Iterable[ILValue] = ()
) -> None:
    """Step 3 of the methodology (Section 3.1).

    Live ranges of the stack pointer and global pointer become candidates
    for global registers; everything else stays a local-register candidate.
    ``extra_values`` lets experiments widen the global set (a future-work
    idea the paper raises for key loop variables).
    """
    extra = set(extra_values)
    for lr in lrs:
        value = lr.value
        lr.global_candidate = (
            value.is_stack_pointer or value.is_global_pointer or value in extra
        )


def compute_spill_weights(program: ILProgram, lrs: LiveRangeSet) -> None:
    """Profile-weighted reference counts, the allocator's spill-cost metric."""
    count_of: dict[int, float] = {}
    for block in program.cfg.blocks():
        weight = float(max(block.profile_count, 1))
        for instr in block.instructions:
            count_of[instr.uid] = weight
    for lr in lrs:
        lr.spill_weight = sum(count_of.get(uid, 1.0) for uid in lr.reference_uids)
