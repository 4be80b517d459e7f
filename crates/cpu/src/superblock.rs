//! Run-time superblock traces: the emulator's top execution tier.
//!
//! The op table (tier [`crate::ExecTier::Fast`]) still pays a
//! per-instruction dispatch tax: a budget compare, a bounds-checked
//! fetch of an [`rest_isa::Op`], a `match` over it, and the per-step
//! bookkeeping (PC, counters, fault hook). Hot loops repay that tax
//! thousands of times.
//! The trace tier amortises it: when execution keeps arriving at the same
//! PC via a control transfer — backward arrivals are loop headers, and
//! forward arrivals via `jal`/`jalr` are function entries and post-call
//! continuations, equally hot in call-heavy code — the emulator compiles
//! the straight-line region starting there into a
//! **superblock trace**: a vector of compact [`TraceOp`]s with every
//! static decision (ALU operation, register numbers, component, elision
//! verdict, injected-check micro-op count) pre-resolved, executed by a
//! tight loop with a single budget check per full pass.
//!
//! Correctness is by restriction, not by cleverness:
//!
//! * Trace enders — `ecall`, `arm`, `disarm`, `halt` — never enter a
//!   trace, so nothing inside a trace can invalidate decoded state,
//!   splice runtime traffic, or self-modify code. Direct and indirect
//!   jumps (`jal`, `jalr`) may appear only as the *terminal* op: they
//!   transfer control out of the trace, which chains naturally into the
//!   trace at the jump target once it heats up.
//! * A taken conditional branch resolves by target: back to the trace
//!   head re-enters op 0 after re-checking the budget (loop
//!   specialisation); *forward* to a PC inside the trace continues the
//!   current pass at that op (if/else bodies stay in-trace); anywhere
//!   else is a **side exit** at the architectural target. Backward
//!   targets other than the head always exit — re-entering mid-trace
//!   could loop without a budget recheck.
//! * Per-access checking goes through the *same* `check_app_access` path
//!   as single-stepping, so backend counters, profiling tables, fault
//!   hooks and violations match the other tiers exactly.
//! * Traces are invalidated on ARM/DISARM-visible code-segment writes
//!   with the same half-open `[addr, addr + len)` semantics as
//!   [`rest_isa::DecodedProgram::invalidate_range`]: any trace whose PC
//!   span intersects the range is dropped and recompiled on its next
//!   hot arrival, so stale fused checks cannot execute.

use rest_isa::{
    AluOp, BranchCond, Component, DecodedProgram, DynInst, Inst, MemSize, Program, Reg, PC_STEP,
};

/// Arrivals via control transfer before a head is compiled.
pub(crate) const HOT_THRESHOLD: u32 = 16;

/// Maximum macro instructions per trace (bounds compile time and the
/// budget-precondition slack).
pub(crate) const MAX_TRACE_OPS: usize = 256;

/// Heat-counter sentinel for heads that can never form a profitable
/// trace (the head instruction is a trace ender, or the region is too
/// short to amortise dispatch).
const DEAD: u32 = u32::MAX;

/// One fused trace operation: the instruction's operands, with branch
/// targets resolved. `Load`/`Store` additionally carry the
/// compile-time-resolved elision verdict and the number of check
/// micro-ops injected per execution.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceOp {
    Alu {
        op: AluOp,
        dst: Reg,
        src1: Reg,
        src2: Reg,
    },
    AluImm {
        op: AluOp,
        dst: Reg,
        src: Reg,
        imm: i64,
    },
    Li {
        dst: Reg,
        imm: i64,
    },
    Nop,
    Load {
        dst: Reg,
        base: Reg,
        offset: i64,
        size: MemSize,
        signed: bool,
        /// Application component (checks apply) — pre-resolved.
        app: bool,
        /// Statically proven unable to fire (elision map) — pre-resolved.
        elided: bool,
        /// Check micro-ops injected when not elided.
        injected: u64,
    },
    Store {
        src: Reg,
        base: Reg,
        offset: i64,
        size: MemSize,
        app: bool,
        elided: bool,
        injected: u64,
    },
    Branch {
        cond: BranchCond,
        src1: Reg,
        src2: Reg,
        target: u64,
    },
    /// Direct jump-and-link; always the terminal op of its trace.
    Jal {
        dst: Reg,
        target: u64,
    },
    /// Indirect jump-and-link; always the terminal op of its trace.
    Jalr {
        dst: Reg,
        base: Reg,
        offset: i64,
    },
}

/// A compiled superblock: straight-line ops starting at `head`, the
/// matching micro-op templates for materialising runs, and the exact
/// micro-op total of one full no-side-exit pass (the budget
/// precondition's bound).
#[derive(Debug)]
pub(crate) struct Trace {
    pub head: u64,
    pub ops: Vec<TraceOp>,
    /// Micro-op templates parallel to `ops`, replayed (with dynamic
    /// fields patched) when the sink materialises.
    pub templates: Vec<DynInst>,
    /// Micro-ops emitted by one complete pass with no side exit. Every
    /// op emits at least one micro-op, so `uops + total_uops <=
    /// max_uops` guarantees no per-step budget stop could have fired
    /// mid-trace.
    pub total_uops: u64,
}

/// Static per-emulator facts the compiler needs to pre-resolve check
/// behaviour (all immutable for the lifetime of a run).
pub(crate) struct TraceCompileCfg<'a> {
    /// ASan-style injected shadow checks are active.
    pub access_checks: bool,
    /// The backend tags pointers (MTE/PA): backend check uops apply.
    pub tagged_ptrs: bool,
    /// `backend.check_uops(false)` — injected uops per checked load.
    pub load_check_uops: u64,
    /// `backend.check_uops(true)` — injected uops per checked store.
    pub store_check_uops: u64,
    /// Dense per-PC elision verdicts (see `Emulator::check_elided`).
    pub elide: Option<&'a [bool]>,
}

impl TraceCompileCfg<'_> {
    fn elided(&self, idx: usize, app: bool) -> bool {
        app && self
            .elide
            .is_some_and(|t| t.get(idx).copied().unwrap_or(false))
    }

    fn injected(&self, app: bool, store: bool) -> u64 {
        if !app {
            return 0;
        }
        let asan = if self.access_checks { 5 } else { 0 };
        let backend = if self.tagged_ptrs {
            if store {
                self.store_check_uops
            } else {
                self.load_check_uops
            }
        } else {
            0
        };
        asan + backend
    }
}

/// Compiles the superblock headed at entry `head_idx` of `program`, or
/// `None` when the region is too short to be worth dispatching (the
/// head is an ender, or the straight line is a short non-looping run).
/// Templates come from `decoded`'s template table, which invalidation
/// always re-derives from `program`.
pub(crate) fn compile(
    program: &Program,
    decoded: &DecodedProgram,
    head_idx: usize,
    cfg: &TraceCompileCfg<'_>,
) -> Option<Trace> {
    let head = Program::CODE_BASE + head_idx as u64 * PC_STEP;
    let mut ops = Vec::new();
    let mut templates = Vec::new();
    let mut total_uops = 0u64;
    for i in 0..MAX_TRACE_OPS {
        let idx = head_idx + i;
        let pc = head + i as u64 * PC_STEP;
        let (Some(inst), Some(&template)) = (program.fetch(pc), decoded.template_at(pc)) else {
            break;
        };
        let app = template.component == Component::App;
        let op = match inst {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => TraceOp::Alu {
                op,
                dst,
                src1,
                src2,
            },
            Inst::AluImm { op, dst, src, imm } => TraceOp::AluImm { op, dst, src, imm },
            Inst::Li { dst, imm } => TraceOp::Li { dst, imm },
            Inst::Nop => TraceOp::Nop,
            Inst::Load {
                dst,
                base,
                offset,
                size,
                signed,
            } => {
                let elided = cfg.elided(idx, app);
                TraceOp::Load {
                    dst,
                    base,
                    offset,
                    size,
                    signed,
                    app,
                    elided,
                    injected: if elided { 0 } else { cfg.injected(app, false) },
                }
            }
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => {
                let elided = cfg.elided(idx, app);
                TraceOp::Store {
                    src,
                    base,
                    offset,
                    size,
                    app,
                    elided,
                    injected: if elided { 0 } else { cfg.injected(app, true) },
                }
            }
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => TraceOp::Branch {
                cond,
                src1,
                src2,
                target: program.label_pc(target),
            },
            // Jumps terminate the trace but execute inside it, so a
            // block ending in a call retires whole; the jump target
            // chains into its own trace once hot.
            Inst::Jal { dst, target } => {
                ops.push(TraceOp::Jal {
                    dst,
                    target: program.label_pc(target),
                });
                templates.push(template);
                total_uops += 1;
                break;
            }
            Inst::Jalr { dst, base, offset } => {
                ops.push(TraceOp::Jalr { dst, base, offset });
                templates.push(template);
                total_uops += 1;
                break;
            }
            // Trace enders: runtime traffic gets spliced or code gets
            // self-modified. These stay on the per-step path.
            Inst::Ecall | Inst::Arm { .. } | Inst::Disarm { .. } | Inst::Halt => break,
        };
        total_uops += match op {
            TraceOp::Load {
                elided, injected, ..
            }
            | TraceOp::Store {
                elided, injected, ..
            } => 1 + if elided { 0 } else { injected },
            _ => 1,
        };
        ops.push(op);
        templates.push(template);
    }
    let loops = ops
        .iter()
        .any(|op| matches!(op, TraceOp::Branch { target, .. } if *target == head));
    // A non-looping trace pays its dispatch cost (cache probe, budget
    // precondition, checkout/restore) exactly once per pass, so short
    // straight-line regions lose money; loops amortise dispatch over
    // every iteration and are worth it at any length.
    if ops.is_empty() || (ops.len() < 4 && !loops) {
        return None;
    }
    Some(Trace {
        head,
        ops,
        templates,
        total_uops,
    })
}

/// The emulator's trace store: per-head heat counters and compiled
/// traces, dense over the code segment like the op table.
#[derive(Debug)]
pub(crate) struct TraceCache {
    heat: Vec<u32>,
    slots: Vec<Option<Box<Trace>>>,
    /// Head indices with installed traces (kept sorted; scanned on
    /// invalidation — trace counts are tiny next to code size).
    installed: Vec<usize>,
    compiled: u64,
    invalidated: u64,
    /// Macro instructions retired inside trace dispatch (coverage
    /// telemetry).
    traced_insts: u64,
}

impl TraceCache {
    pub fn new(len: usize) -> TraceCache {
        TraceCache {
            heat: vec![0; len],
            slots: (0..len).map(|_| None).collect(),
            installed: Vec::new(),
            compiled: 0,
            invalidated: 0,
            traced_insts: 0,
        }
    }

    /// Code-segment index of `pc`, mirroring `DecodedProgram::op_at`.
    #[inline]
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        let off = pc.checked_sub(Program::CODE_BASE)?;
        if off % PC_STEP != 0 {
            return None;
        }
        let idx = (off / PC_STEP) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Whether a trace is installed at `idx`.
    #[inline]
    pub fn has(&self, idx: usize) -> bool {
        self.slots[idx].is_some()
    }

    /// Counts one hot arrival at `idx`; true once the head crossed the
    /// compile threshold (and is not marked dead).
    #[inline]
    pub fn bump(&mut self, idx: usize) -> bool {
        let h = &mut self.heat[idx];
        if *h == DEAD {
            return false;
        }
        *h = h.saturating_add(1);
        *h >= HOT_THRESHOLD && *h != DEAD
    }

    /// Marks `idx` as never-compilable.
    pub fn mark_dead(&mut self, idx: usize) {
        self.heat[idx] = DEAD;
    }

    /// Installs a compiled trace at `idx`.
    pub fn install(&mut self, idx: usize, t: Trace) {
        if self.slots[idx].is_none() {
            if let Err(pos) = self.installed.binary_search(&idx) {
                self.installed.insert(pos, idx);
            }
        }
        self.slots[idx] = Some(Box::new(t));
        self.compiled += 1;
    }

    /// Detaches the trace at `idx` for execution (the emulator mutates
    /// itself while running it); restore with [`TraceCache::restore`].
    #[inline]
    pub fn checkout(&mut self, idx: usize) -> Option<Box<Trace>> {
        self.slots[idx].take()
    }

    /// Re-attaches a checked-out trace.
    #[inline]
    pub fn restore(&mut self, idx: usize, t: Box<Trace>) {
        self.slots[idx] = Some(t);
    }

    /// Drops every trace whose PC span intersects the half-open byte
    /// range `[addr, addr + len)` — the same boundary semantics as
    /// `DecodedProgram::invalidate_range`. Dropped heads keep their heat,
    /// so a still-hot loop recompiles on its next backward arrival.
    /// Returns the number of traces dropped.
    pub fn invalidate_range(&mut self, addr: u64, len: u64) -> usize {
        if len == 0 || self.installed.is_empty() {
            return 0;
        }
        let code_end = Program::CODE_BASE + self.slots.len() as u64 * PC_STEP;
        let lo = addr.max(Program::CODE_BASE);
        let hi = addr.saturating_add(len).min(code_end);
        if lo >= hi {
            return 0;
        }
        let first = ((lo - Program::CODE_BASE) / PC_STEP) as usize;
        let last = ((hi - 1 - Program::CODE_BASE) / PC_STEP) as usize;
        let mut dropped = 0;
        self.installed.retain(|&head_idx| {
            let span = self.slots[head_idx]
                .as_ref()
                .map(|t| t.ops.len())
                .unwrap_or(0);
            // Trace covers entries [head_idx, head_idx + span); the
            // invalidated entries are [first, last].
            let hit = head_idx <= last && head_idx + span > first;
            if hit {
                self.slots[head_idx] = None;
                dropped += 1;
            }
            !hit
        });
        self.invalidated += dropped as u64;
        dropped
    }

    /// `(traces compiled, traces invalidated)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.compiled, self.invalidated)
    }

    /// Counts `n` macro instructions retired inside trace dispatch.
    #[inline]
    pub fn count_traced(&mut self, n: u64) {
        self.traced_insts += n;
    }

    /// Macro instructions retired inside trace dispatch so far.
    pub fn traced_insts(&self) -> u64 {
        self.traced_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_isa::{DecodeOptions, ProgramBuilder};

    fn cfg() -> TraceCompileCfg<'static> {
        TraceCompileCfg {
            access_checks: false,
            tagged_ptrs: false,
            load_check_uops: 0,
            store_check_uops: 0,
            elide: None,
        }
    }

    fn decoded(p: &Program) -> DecodedProgram {
        DecodedProgram::new(
            p,
            DecodeOptions {
                arm_width: 64,
                arm_as_store: false,
            },
        )
    }

    fn loop_program() -> Program {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, 100);
        p.bind(lp); // index 2
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.halt();
        p.build()
    }

    #[test]
    fn compiles_loop_bodies_with_looping_terminal_branch() {
        let p = loop_program();
        let d = decoded(&p);
        let t = compile(&p, &d, 2, &cfg()).expect("loop body compiles");
        assert_eq!(t.head, Program::CODE_BASE + 2 * PC_STEP);
        assert_eq!(t.ops.len(), 3, "add, addi, bne");
        assert_eq!(t.total_uops, 3);
        assert!(
            matches!(t.ops.last(), Some(TraceOp::Branch { target, .. }) if *target == t.head),
            "terminal bne targets the head"
        );
        assert_eq!(t.templates.len(), t.ops.len());
    }

    #[test]
    fn enders_stop_compilation_and_dead_heads_return_none() {
        let p = loop_program();
        let d = decoded(&p);
        // Head at the halt: zero ops.
        assert!(compile(&p, &d, 6, &cfg()).is_none());
        // Head at the bne: one looping op is still worth dispatching.
        let t = compile(&p, &d, 5, &cfg());
        assert!(t.is_none(), "bne at 5 targets 2, not itself");
    }

    #[test]
    fn heat_crosses_threshold_once_and_dead_stays_dead() {
        let mut c = TraceCache::new(8);
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(!c.bump(3));
        }
        assert!(c.bump(3), "threshold crossing");
        assert!(c.bump(3), "stays hot");
        c.mark_dead(4);
        for _ in 0..2 * HOT_THRESHOLD {
            assert!(!c.bump(4), "dead heads never become hot");
        }
    }

    #[test]
    fn invalidation_is_half_open_over_trace_spans() {
        let p = loop_program();
        let d = decoded(&p);
        let mut c = TraceCache::new(p.len());
        let t = compile(&p, &d, 2, &cfg()).unwrap();
        c.install(2, t);
        assert!(c.has(2));
        let base = Program::CODE_BASE;
        // Range ending exactly at the trace head (half-open) misses it.
        assert_eq!(c.invalidate_range(base, 2 * PC_STEP), 0);
        assert!(c.has(2));
        // Zero length touches nothing.
        assert_eq!(c.invalidate_range(base + 2 * PC_STEP, 0), 0);
        // Range starting exactly at the end of the trace span misses it.
        assert_eq!(c.invalidate_range(base + 5 * PC_STEP, PC_STEP), 0);
        assert!(c.has(2));
        // A one-byte write to the trace's last entry drops it.
        assert_eq!(c.invalidate_range(base + 5 * PC_STEP - 1, 1), 1);
        assert!(!c.has(2));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn invalidation_hits_traces_straddled_by_writes() {
        let p = loop_program();
        let d = decoded(&p);
        let mut c = TraceCache::new(p.len());
        c.install(2, compile(&p, &d, 2, &cfg()).unwrap());
        // A write overlapping only the middle of the span drops it.
        assert_eq!(c.invalidate_range(Program::CODE_BASE + 3 * PC_STEP, 1), 1);
        assert!(!c.has(2));
        // Heat is preserved: a hot head recompiles on the next arrival.
        for _ in 0..HOT_THRESHOLD {
            c.bump(2);
        }
        assert!(c.bump(2));
    }
}
