"""Property-based tests over randomly generated IL programs."""

import collections
import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.compiler.liveness import LivenessInfo
from repro.compiler.passes import optimize_program
from repro.compiler.webs import build_live_ranges
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import ILInstruction
from repro.isa.opcodes import Opcode

_OPS = [Opcode.ADDQ, Opcode.SUBQ, Opcode.XOR, Opcode.MULQ, Opcode.CMPLT]


def random_program(seed: int, blocks: int = 3, size: int = 8):
    """A random multi-block program with stores anchoring liveness."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"rand{seed}")
    sp = b.stack_pointer_value()
    names = ["v0"]
    b.block("b0")
    b.op(Opcode.LDA, "v0", imm=1)
    for bi in range(blocks):
        if bi:
            b.block(f"b{bi}")
        for i in range(size):
            choice = rng.random()
            if choice < 0.2:
                name = f"v{len(names)}"
                b.op(Opcode.LDA, name, imm=rng.randrange(64))
                names.append(name)
            elif choice < 0.3:
                b.store(rng.choice(names), sp)
            else:
                name = f"v{len(names)}"
                srcs = [rng.choice(names) for _ in range(2)]
                b.op(rng.choice(_OPS), name, *srcs)
                names.append(name)
        if bi + 1 < blocks and rng.random() < 0.5:
            b.branch(Opcode.BNE, rng.choice(names), f"b{bi + 1}")
    b.store(names[-1], sp)
    b.ret()
    return b.build()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_property_webs_resolve_every_operand(seed):
    """Every source/destination of every instruction maps to a live range."""
    prog = random_program(seed)
    lrs = build_live_ranges(prog)
    for instr in prog.all_instructions():
        for src in instr.srcs:
            assert (instr.uid, src) in lrs.use_map
        if instr.dest is not None:
            assert (instr.uid, instr.dest) in lrs.def_map


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_property_web_references_partition_program(seed):
    """Each (instruction, operand) reference belongs to exactly one range."""
    prog = random_program(seed)
    lrs = build_live_ranges(prog)
    seen_defs = set()
    for lr in lrs:
        for uid in lr.def_uids:
            key = (uid, lr.value.vid)
            assert key not in seen_defs
            seen_defs.add(key)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_property_optimization_preserves_effects(seed):
    """Optimization never drops stores or control flow, and the program
    still renumbers densely afterwards."""
    prog = random_program(seed)
    stores_before = sum(1 for i in prog.all_instructions() if i.opcode.is_store)
    branches_before = sum(1 for i in prog.all_instructions() if i.opcode.is_control)
    optimize_program(prog)
    stores_after = sum(1 for i in prog.all_instructions() if i.opcode.is_store)
    branches_after = sum(1 for i in prog.all_instructions() if i.opcode.is_control)
    assert stores_after == stores_before
    assert branches_after == branches_before
    uids = [i.uid for i in prog.all_instructions()]
    assert uids == list(range(len(uids)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000))
def test_property_liveness_fixpoint(seed):
    """live_in == use | (live_out - def) at the fixpoint, every block."""
    prog = random_program(seed)
    info = LivenessInfo(prog)
    for label in prog.cfg.labels():
        block_info = info.blocks[label]
        expected_in = block_info.use | (block_info.live_out - block_info.defs)
        assert block_info.live_in == expected_in
        out = set()
        for succ in prog.cfg.block(label).succ_labels:
            out |= info.blocks[succ].live_in
        assert block_info.live_out == out


@st.composite
def random_cfgs(draw):
    """Arbitrary CFGs over four values: loops, back edges, self loops,
    values redefined in several blocks, unreachable blocks and uses that no
    definition reaches."""
    n = draw(st.integers(1, 7))
    b = ProgramBuilder("cfg")
    names = ["x0", "x1", "x2", "x3"]
    for bi in range(n):
        b.block(f"b{bi}")
        for _ in range(draw(st.integers(0, 4))):
            srcs = tuple(b.value(x) for x in draw(st.lists(st.sampled_from(names), max_size=2)))
            if draw(st.booleans()) and len(srcs) == 2:
                b.emit(ILInstruction(Opcode.STQ, srcs=srcs))
            else:
                dest = b.value(draw(st.sampled_from(names)))
                b.emit(ILInstruction(Opcode.ADDQ, dest=dest, srcs=srcs))
        succs = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        if succs:
            b.edge_probs({f"b{s}": 1.0 / len(succs) for s in succs})
        else:
            b.ret()
    return b.build()


def reference_webs(program):
    """Dense reaching defs + union-find.  n sweeps reach the fixpoint (defs
    travel simple paths); lrids follow first reference, defs then uses."""
    cfg, vids = program.cfg, [v.vid for v in program.values]
    rin = {b: {v: {-1 - v} if b == cfg.entry_label else set() for v in vids} for b in cfg.labels()}
    for _sweep, label in itertools.product(cfg.labels(), cfg.labels()):
        out = {v: set(defs) for v, defs in rin[label].items()}
        for instr in cfg.block(label).instructions:
            if instr.dest is not None:
                out[instr.dest.vid] = {instr.uid}
        for succ, v in itertools.product(cfg.block(label).succ_labels, vids):
            rin[succ][v] |= out[v]
    parent, real_defs, uses, webs, count = {}, [], {}, {}, collections.Counter()

    def find(key):
        while parent.setdefault(key, key) != key:
            key = parent[key]
        return key

    for label in cfg.labels():
        cur = {v: set(defs) for v, defs in rin[label].items()}
        for instr in cfg.block(label).instructions:
            for src in instr.srcs:
                keys = [(d, src.vid) for d in cur[src.vid] or {-1 - src.vid}]
                for key in keys[1:]:
                    parent[find(key)] = find(keys[0])
                uses[(instr.uid, src.vid)] = keys[0]
            if instr.dest is not None:
                cur[instr.dest.vid] = {instr.uid}
                real_defs.append((instr.uid, instr.dest.vid))
    for kind, (uid, vid), key in [(2, d, d) for d in sorted(real_defs)] + [
            (3, u, uses[u]) for u in sorted(uses)]:
        if find(key) not in webs:
            webs[find(key)] = [vid, count[vid], set(), set()]
            count[vid] += 1
        webs[find(key)][kind].add(uid)
    ranges = [(v, i if count[v] > 1 else 0, sorted(d), sorted(u)) for v, i, d, u in webs.values()]
    lrid = {root: n for n, root in enumerate(webs)}
    return ranges, {d: lrid[find(d)] for d in real_defs}, {u: lrid[find(k)] for u, k in uses.items()}


def canonical_webs(lrs):
    """Per-lrid ``(vid, web_index, def_uids, use_uids)`` plus the operand maps."""
    assert [lr.lrid for lr in lrs] == list(range(len(lrs)))
    ranges = [(lr.value.vid, lr.web_index, sorted(lr.def_uids), sorted(lr.use_uids)) for lr in lrs]
    def_map = {(uid, value.vid): lr.lrid for (uid, value), lr in lrs.def_map.items()}
    use_map = {(uid, value.vid): lr.lrid for (uid, value), lr in lrs.use_map.items()}
    return ranges, def_map, use_map


@settings(max_examples=300, deadline=None)
@given(random_cfgs())
def test_property_webs_match_dense_reference(program):
    """Sparse, liveness-pruned web construction equals a dense
    reaching-definitions reference: same lrids, webs and operand maps."""
    assert canonical_webs(build_live_ranges(program)) == reference_webs(program)
