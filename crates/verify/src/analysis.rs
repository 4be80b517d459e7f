//! The dataflow analysis and the REST lint passes.
//!
//! A forward worklist analysis runs over every recovered function of the
//! [`Cfg`], interpreting instructions over the [`domain`](crate::domain)
//! of strided intervals, allocation-site pointers, and frame-relative
//! addresses. On top of the fixpoint, the passes report:
//!
//! * **arm/disarm balance** — a path from an `arm` to a function return
//!   or program exit that never executes the matching `disarm` leaks
//!   blacklisted memory (the §IV-B stack-instrumentation hazard),
//! * **guaranteed violations** — accesses that *must* alias a still-armed
//!   or freed (token-filled) region and would trap at runtime
//!   (`severity: must-trap`; the differential harness cross-checks these
//!   against the emulator),
//! * general lints: reads of never-written registers, unreachable
//!   blocks, stores into the code segment, unresolvable `ecall` service
//!   numbers, stack-pointer discipline, padding-gap overreads (§V-C
//!   false negative), cross-allocation pointer arithmetic (§V-C
//!   predictability), and reads of never-written heap chunks.
//!
//! Every report is anchored on a *bounded* fact — unbounded intervals
//! and `Top` values never produce findings — which is what keeps the
//! workload corpus clean while every attack program is flagged.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rest_isa::{AluOp, BranchCond, EcallNum, Inst, Program, Reg, PC_STEP};

use crate::cfg::{Block, Cfg, Function, Succ};
use crate::domain::{AbsVal, SInt, SiteId};
use crate::vecmap::VecMap;

/// The REST token granule the lint assumes (the paper's evaluated
/// default; `arm`/`disarm` and the allocator redzones operate on 64-byte
/// granules).
pub const GRANULE: u64 = 64;

/// Analysis budget: total block visits across all functions. Far above
/// anything the in-tree corpus needs; a backstop against pathological
/// inputs.
const MAX_VISITS: usize = 50_000;
/// Widening threshold: joins at a block before bounds are widened.
const WIDEN_AFTER: usize = 4;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but not provably wrong.
    Warning,
    /// A real defect (leak, discipline violation), though the run may
    /// still complete.
    Error,
    /// The access is statically guaranteed to raise a REST violation at
    /// runtime (checked by the differential harness).
    MustTrap,
}

impl Severity {
    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::MustTrap => "must-trap",
        }
    }
}

/// One lint finding, anchored at a PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced the finding (stable kebab-case name).
    pub pass: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Anchoring program counter.
    pub pc: u64,
    /// Human-readable description.
    pub message: String,
}

/// Everything the verifier learned about one program.
#[derive(Debug, Clone)]
pub struct VerifyResult {
    /// Findings, sorted by (pc, pass).
    pub findings: Vec<Finding>,
    /// Instruction count.
    pub insts: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// Recovered-function count.
    pub functions: usize,
    /// Static allocation sites discovered.
    pub sites: usize,
}

impl VerifyResult {
    /// Findings at or above `min`.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity >= min)
    }

    /// Whether any finding is a guaranteed runtime violation.
    pub fn has_must_trap(&self) -> bool {
        self.at_least(Severity::MustTrap).next().is_some()
    }
}

/// Statically verifies `program`, running every pass.
pub fn verify_program(program: &Program) -> VerifyResult {
    Analyzer::new(program).execute()
}

// ---------------------------------------------------------------------
// Allocation sites
// ---------------------------------------------------------------------

/// Which service created an allocation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllocKind {
    Malloc,
    Calloc,
    Realloc,
    Sbrk,
}

#[derive(Debug, Clone)]
pub(crate) struct SiteInfo {
    pub(crate) pc: u64,
    pub(crate) kind: AllocKind,
    /// User size when every visit saw the same constant.
    pub(crate) size: Option<u64>,
    pub(crate) size_conflict: bool,
    /// Possibly written (stores, memcpy/memset destinations, zeroing
    /// allocators).
    stored: bool,
    /// First PC that loads from the site.
    first_load: Option<u64>,
}

impl SiteInfo {
    pub(crate) fn usable_size(&self) -> Option<u64> {
        if self.size_conflict {
            None
        } else {
            self.size
        }
    }

    /// User area rounded up to the token granule (the allocator pads the
    /// user area so the trailing redzone is granule-aligned).
    pub(crate) fn padded_size(&self) -> Option<u64> {
        self.usable_size()
            .map(|s| s.max(1).div_ceil(GRANULE) * GRANULE)
    }

    /// Allocator redzone length on each side of a heap chunk (mirrors
    /// `rest-runtime`'s `redzone_for`).
    pub(crate) fn redzone_len(&self) -> Option<u64> {
        self.usable_size()
            .map(|s| (s / 4).clamp(GRANULE, 2048).div_ceil(GRANULE) * GRANULE)
    }

    /// Whether the allocator arms redzones around this site's chunks.
    pub(crate) fn has_allocator_redzones(&self) -> bool {
        !matches!(self.kind, AllocKind::Sbrk)
    }
}

// ---------------------------------------------------------------------
// Abstract state
// ---------------------------------------------------------------------

/// An armable location, resolved to a singleton address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Loc {
    /// Absolute address (main-frame or static arithmetic).
    Abs(u64),
    /// Function-entry `sp` + offset.
    Sp(i64),
    /// Allocation site + byte offset.
    Heap(SiteId, i64),
}

impl Loc {
    fn describe(&self) -> String {
        match self {
            Loc::Abs(a) => format!("address {a:#x}"),
            Loc::Sp(o) => format!("sp{o:+}"),
            Loc::Heap(s, o) => format!("alloc#{s}+{o}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArmInfo {
    /// Armed on every path (false = only on some).
    pub(crate) must: bool,
    /// PC of the arming instruction.
    pub(crate) arm_pc: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State {
    pub(crate) regs: [AbsVal; Reg::COUNT],
    pub(crate) armed: VecMap<Loc, ArmInfo>,
    /// Freed allocation sites (true = freed on every path).
    pub(crate) freed: VecMap<SiteId, bool>,
    /// An `arm` executed at an address the analysis could not resolve;
    /// suppresses disarm-of-unarmed must-trap claims downstream.
    pub(crate) armed_unknown: bool,
}

impl State {
    pub(crate) fn entry(is_main: bool) -> State {
        let mut regs = [if is_main { AbsVal::Undef } else { AbsVal::Top }; Reg::COUNT];
        regs[Reg::ZERO.index()] = AbsVal::val(0);
        if !is_main {
            regs[Reg::SP.index()] = AbsVal::SpRel { off: SInt::val(0) };
        }
        State {
            regs,
            armed: VecMap::default(),
            freed: VecMap::default(),
            armed_unknown: false,
        }
    }

    pub(crate) fn get(&self, r: Reg) -> AbsVal {
        self.regs[r.index()]
    }

    pub(crate) fn set(&mut self, r: Reg, v: AbsVal) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Joins `other` into `self`; returns whether `self` changed. Only
    /// the registers in `regs` are joined: the others must be equal on
    /// both sides. A location armed (a site freed) on one side only is
    /// armed (freed) on some paths; on both sides it stays must only if
    /// both are must.
    pub(crate) fn join_into(&mut self, other: &State, regs: RegSet) -> bool {
        let mut changed = false;
        for i in regs.iter() {
            let (r, o) = (&mut self.regs[i], &other.regs[i]);
            if r != o {
                let joined = r.join(o);
                changed |= joined != *r;
                *r = joined;
            }
        }
        changed |= self.armed.join_with(
            &other.armed,
            |a, b| ArmInfo {
                must: a.must && b.must,
                arm_pc: a.arm_pc.min(b.arm_pc),
            },
            |a| ArmInfo { must: false, ..a },
        );
        changed |= self.freed.join_with(&other.freed, |a, b| a && b, |_| false);
        changed |= other.armed_unknown && !self.armed_unknown;
        self.armed_unknown |= other.armed_unknown;
        changed
    }

    /// Widens the registers in `regs` against their values in `prev`
    /// (widening an unchanged entry value leaves it as it is).
    fn widen_from(&mut self, prev: &[AbsVal; Reg::COUNT], regs: RegSet) {
        for i in regs.iter() {
            self.regs[i] = self.regs[i].widen_from(&prev[i]);
        }
    }

    /// Copies `source` into `self`, copying only the registers in `regs`
    /// (the others must already be equal).
    fn load(&mut self, source: &State, regs: RegSet) {
        for i in regs.iter() {
            self.regs[i] = source.regs[i];
        }
        self.armed.clone_from(&source.armed);
        self.freed.clone_from(&source.freed);
        self.armed_unknown = source.armed_unknown;
    }

    /// Whether `self` equals `other`, comparing only the registers in
    /// `regs` (the others must be equal on both sides).
    fn same_as(&self, other: &State, regs: RegSet) -> bool {
        regs.iter().all(|i| self.regs[i] == other.regs[i])
            && self.armed == other.armed
            && self.freed == other.freed
            && self.armed_unknown == other.armed_unknown
    }
}

/// A set of registers, one bit per register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegSet(u32);

impl RegSet {
    /// Every register.
    #[cfg(test)]
    pub(crate) const ALL: RegSet = RegSet(u32::MAX);

    /// The registers any transfer within `func` can write: its
    /// instructions' destinations, `a0` for an `ecall`, the operands a
    /// branch refines, and the caller-saved registers a call clobbers.
    /// Every other register keeps its entry value in every state of the
    /// function, so joins and comparisons can skip it.
    fn written_in(program: &Program, cfg: &Cfg, func: &Function) -> RegSet {
        let mut set = 0u32;
        let mut add = |r: Reg| set |= 1 << r.index();
        for &bi in &func.blocks {
            let block = &cfg.blocks[bi];
            for pc in block.pcs() {
                match program.fetch(pc).expect("pc in range") {
                    Inst::Li { dst, .. }
                    | Inst::Alu { dst, .. }
                    | Inst::AluImm { dst, .. }
                    | Inst::Load { dst, .. }
                    | Inst::Jal { dst, .. }
                    | Inst::Jalr { dst, .. } => add(dst),
                    Inst::Ecall => add(Reg::A0),
                    Inst::Branch { src1, src2, .. } => {
                        add(src1);
                        add(src2);
                    }
                    Inst::Store { .. }
                    | Inst::Arm { .. }
                    | Inst::Disarm { .. }
                    | Inst::Halt
                    | Inst::Nop => {}
                }
            }
            if block
                .succs
                .iter()
                .any(|s| matches!(s, Succ::CallReturn { .. }))
            {
                Reg::all().filter(|r| caller_saved(*r)).for_each(&mut add);
            }
        }
        // Writes to `zero` are dropped.
        RegSet(set & !1)
    }

    /// Register indices in the set, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    }
}

// ---------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------

pub(crate) struct Analyzer<'p> {
    pub(crate) program: &'p Program,
    /// Shared so a pass can hold a block while it updates the analyzer.
    pub(crate) cfg: Rc<Cfg>,
    code_end: u64,
    pub(crate) sites: Vec<SiteInfo>,
    /// Instruction index → the allocation site its `ecall` creates.
    site_at: Vec<Option<SiteId>>,
    /// Every static `sbrk` request is a granule multiple, so every sbrk
    /// result is granule-aligned (the break starts aligned).
    sbrk_aligned: bool,
    findings: BTreeMap<(u64, &'static str), Finding>,
    /// A store through an unresolvable pointer havocs the written-set.
    unknown_store: bool,
    /// Function currently being analyzed (index into `cfg.functions`).
    cur_fn: usize,
    /// Retain per-function fixpoint in-states in `saved_states` (the
    /// elision pass re-walks blocks from them; `verify_program` skips
    /// the cost).
    pub(crate) keep_states: bool,
    /// Function index → in-state at the narrowed fixpoint of each member
    /// block, by [`Function::slot`](crate::cfg::Function::slot) (`None`:
    /// unreached). Empty for a function whose entry has no block.
    pub(crate) saved_states: Vec<Vec<Option<State>>>,
    /// Absolute addresses with a guest `arm` anywhere in the program.
    pub(crate) abs_arms: BTreeSet<u64>,
    /// Allocation sites with a guest `arm` somewhere inside the chunk.
    pub(crate) heap_arm_sites: BTreeSet<SiteId>,
    /// Function index → entry-sp offsets armed within that function.
    pub(crate) sp_arms: BTreeMap<usize, BTreeSet<i64>>,
    /// Every resolved arm: (function, location, arm PC).
    pub(crate) arm_records: BTreeSet<(usize, Loc, u64)>,
    /// An `arm` at an unresolvable address anywhere in the program.
    pub(crate) unknown_arm: bool,
    /// Sites freed — must or may — anywhere in the program. Unlike the
    /// flow-sensitive `State::freed` (which reallocation clears), this
    /// set is monotone: stale aliases into a site that is *ever* freed
    /// can dangle into token-filled quarantine, so elision must treat
    /// the site as freed on every path.
    pub(crate) may_freed: BTreeSet<SiteId>,
    /// A `free`/`realloc` whose argument is not a resolvable allocation
    /// base: any heap chunk may be quarantined.
    pub(crate) unknown_free: bool,
    /// Function index → whether it makes an sp-relative memory access.
    fns_with_sp_access: Vec<bool>,
    /// Any memory access through an absolute (numeric) address.
    has_abs_access: bool,
    /// Any memory access through an unresolvable (`Top`/`Undef`) base.
    unknown_access: bool,
}

impl<'p> Analyzer<'p> {
    pub(crate) fn new(program: &'p Program) -> Analyzer<'p> {
        let cfg = Rc::new(Cfg::build(program));
        let code_end = Program::CODE_BASE + program.len() as u64 * PC_STEP;
        Analyzer {
            program,
            cfg,
            code_end,
            sites: Vec::new(),
            site_at: vec![None; program.len()],
            sbrk_aligned: true,
            findings: BTreeMap::new(),
            unknown_store: false,
            cur_fn: 0,
            keep_states: false,
            saved_states: Vec::new(),
            abs_arms: BTreeSet::new(),
            heap_arm_sites: BTreeSet::new(),
            sp_arms: BTreeMap::new(),
            arm_records: BTreeSet::new(),
            unknown_arm: false,
            may_freed: BTreeSet::new(),
            unknown_free: false,
            fns_with_sp_access: Vec::new(),
            has_abs_access: false,
            unknown_access: false,
        }
    }

    fn report(&mut self, pass: &'static str, severity: Severity, pc: u64, message: String) {
        match self.findings.entry((pc, pass)) {
            Entry::Vacant(slot) => {
                slot.insert(Finding {
                    pass,
                    severity,
                    pc,
                    message,
                });
            }
            Entry::Occupied(mut slot) => {
                let finding = slot.get_mut();
                if severity > finding.severity {
                    finding.severity = severity;
                    finding.message = message;
                }
            }
        }
    }

    pub(crate) fn execute(&mut self) -> VerifyResult {
        // Structural lints first.
        for bi in self.cfg.unreachable_blocks() {
            let b = &self.cfg.blocks[bi];
            let (start, end) = (b.start, b.end - PC_STEP);
            self.report(
                "unreachable",
                Severity::Warning,
                start,
                format!("block {start:#x}..={end:#x} is unreachable from every function entry"),
            );
        }

        // One dataflow fixpoint per function, then a collection pass.
        if self.keep_states {
            self.saved_states = vec![Vec::new(); self.cfg.functions.len()];
        }
        self.fns_with_sp_access = vec![false; self.cfg.functions.len()];
        for fi in 0..self.cfg.functions.len() {
            self.analyze_function(fi);
        }

        // Flow-insensitive pass: heap chunks read but never written.
        for site in 0..self.sites.len() {
            let info = &self.sites[site];
            let Some(pc) = info.first_load else { continue };
            if info.kind == AllocKind::Malloc && !self.unknown_store && !info.stored {
                let at = info.pc;
                self.report(
                    "uninit-heap-read",
                    Severity::Warning,
                    pc,
                    format!(
                        "read from allocation at pc {at:#x} that no path ever writes \
                         (uninitialised-data leak; REST's zeroed pool masks it)"
                    ),
                );
            }
        }

        // Flow-insensitive pass: arms whose guarded location no access in
        // the whole program can reach — the ARM/DISARM pair burns cycles
        // and arms a token nothing can trip over. Any unresolvable access
        // (a `Top`/`Undef` base) could touch anything, so it suppresses
        // the pass entirely.
        if !self.unknown_access {
            for (fi, loc, pc) in self.arm_records.clone() {
                let dead = match loc {
                    Loc::Sp(_) => !self.fns_with_sp_access[fi],
                    Loc::Heap(site, _) => {
                        !self.sites[site].stored && self.sites[site].first_load.is_none()
                    }
                    Loc::Abs(_) => !self.has_abs_access,
                };
                if dead {
                    self.report(
                        "dead-arm",
                        Severity::Warning,
                        pc,
                        format!(
                            "{} is armed but no reachable access can touch the guarded \
                             region; the arm/disarm pair is dead instrumentation",
                            loc.describe()
                        ),
                    );
                }
            }
        }

        let mut findings: Vec<Finding> = std::mem::take(&mut self.findings).into_values().collect();
        findings.sort_by(|a, b| (a.pc, a.pass).cmp(&(b.pc, b.pass)));
        VerifyResult {
            findings,
            insts: self.program.len(),
            blocks: self.cfg.blocks.len(),
            functions: self.cfg.functions.len(),
            sites: self.sites.len(),
        }
    }

    fn analyze_function(&mut self, fi: usize) {
        let cfg = Rc::clone(&self.cfg);
        let func = &cfg.functions[fi];
        self.cur_fn = fi;
        let is_main = fi == 0;
        let Some(entry_slot) = cfg.block_at(func.entry).and_then(|bi| func.slot(bi)) else {
            return;
        };

        let regs = RegSet::written_in(self.program, &cfg, func);
        // Per-member-block tables, indexed by `Function::slot`.
        let n = func.blocks.len();
        let mut in_states: Vec<Option<State>> = Vec::with_capacity(n);
        in_states.resize_with(n, || None);
        in_states[entry_slot] = Some(State::entry(is_main));
        let mut visits = vec![0usize; n];
        let mut queued = vec![false; n];
        let mut work: VecDeque<usize> = VecDeque::new();
        work.push_back(entry_slot);
        queued[entry_slot] = true;
        // The state every transfer runs in. Like every state of this
        // function, it holds entry values outside `regs`.
        let mut state = State::entry(is_main);
        let mut budget = MAX_VISITS;

        while let Some(slot) = work.pop_front() {
            queued[slot] = false;
            if budget == 0 {
                self.report(
                    "analysis-budget",
                    Severity::Warning,
                    func.entry,
                    "analysis budget exceeded; results for this function are partial".into(),
                );
                break;
            }
            budget -= 1;
            let in_state = in_states[slot].as_ref();
            state.load(in_state.expect("queued blocks have an in-state"), regs);
            let block = &cfg.blocks[func.blocks[slot]];
            self.transfer_block(block, &mut state, is_main, false);
            for_each_edge(&cfg, self.program, block, &mut state, |succ_bi, out| {
                let Some(succ) = func.slot(succ_bi) else {
                    return;
                };
                match &mut in_states[succ] {
                    slot @ None => *slot = Some(out.clone()),
                    Some(prev) => {
                        // Widening needs the registers before the join.
                        let before = if visits[succ] >= WIDEN_AFTER {
                            Some(prev.regs)
                        } else {
                            None
                        };
                        if !prev.join_into(out, regs) {
                            return;
                        }
                        visits[succ] += 1;
                        if let Some(before) = &before {
                            prev.widen_from(before, regs);
                        }
                    }
                }
                if !queued[succ] {
                    queued[succ] = true;
                    work.push_back(succ);
                }
            });
        }

        // Narrowing: widening over-approximates loop variables to
        // unbounded intervals, which the branch-guard refinements on the
        // back edges can win back. A fixed number of descending
        // iterations recomputes every in-state purely from its
        // predecessors' (refined) out-edges; each step shrinks or keeps
        // states, so this stays sound.
        let mut next: Vec<Option<State>> = Vec::with_capacity(n);
        for _ in 0..2 {
            next.clear();
            next.resize_with(n, || None);
            next[entry_slot] = Some(State::entry(is_main));
            for (slot, in_state) in in_states.iter().enumerate() {
                let Some(in_state) = in_state else { continue };
                state.load(in_state, regs);
                let block = &cfg.blocks[func.blocks[slot]];
                self.transfer_block(block, &mut state, is_main, false);
                for_each_edge(
                    &cfg,
                    self.program,
                    block,
                    &mut state,
                    |succ_bi, out| match func.slot(succ_bi).map(|succ| &mut next[succ]) {
                        None => {}
                        Some(slot @ None) => *slot = Some(out.clone()),
                        Some(Some(e)) => {
                            e.join_into(out, regs);
                        }
                    },
                );
            }
            let same = next.iter().zip(&in_states).all(|pair| match pair {
                (Some(a), Some(b)) => a.same_as(b, regs),
                (a, b) => a.is_none() && b.is_none(),
            });
            if same {
                break;
            }
            std::mem::swap(&mut in_states, &mut next);
        }

        // Collection pass over the fixpoint states. Without
        // `keep_states` each in-state is consumed by its own transfer.
        for (slot, in_state) in in_states.iter_mut().enumerate() {
            let Some(in_state) = in_state else { continue };
            let in_state = if self.keep_states {
                state.load(in_state, regs);
                &mut state
            } else {
                in_state
            };
            let block = &cfg.blocks[func.blocks[slot]];
            self.transfer_block(block, in_state, is_main, true);
        }

        if self.keep_states {
            self.saved_states[fi] = in_states;
        }
    }

    /// Interprets `block` from the in-state `state`, leaving its out-state
    /// there. With `collect`, findings are recorded (used once at
    /// fixpoint), including those on the edges that end a path.
    fn transfer_block(&mut self, block: &Block, state: &mut State, is_main: bool, collect: bool) {
        for pc in block.pcs() {
            let inst = self.program.fetch(pc).expect("pc in range");
            self.transfer_inst(pc, &inst, state, is_main, collect);
        }
        if !collect {
            return;
        }
        let last_pc = block.end - PC_STEP;
        for succ in &block.succs {
            match *succ {
                Succ::Ret => self.check_return(last_pc, state),
                Succ::Exit => self.check_exit(last_pc, state),
                Succ::Indirect => self.report(
                    "indirect-jump",
                    Severity::Error,
                    last_pc,
                    "indirect jump through a computed register cannot be verified".into(),
                ),
                Succ::FallsOffEnd => self.report(
                    "falls-off-end",
                    Severity::Error,
                    last_pc,
                    "execution can run past the end of the code segment".into(),
                ),
                Succ::Fall(_) | Succ::Taken(_) | Succ::Jump(_) | Succ::CallReturn { .. } => {}
            }
        }
    }

    // -- instruction transfer -----------------------------------------

    fn read(&mut self, r: Reg, state: &State, pc: u64, is_main: bool, collect: bool) -> AbsVal {
        let v = state.get(r);
        if matches!(v, AbsVal::Undef) {
            if collect && is_main {
                self.report(
                    "undef-register-read",
                    Severity::Error,
                    pc,
                    format!("register {r} is read but never written on some path"),
                );
            }
            return AbsVal::Top;
        }
        v
    }

    pub(crate) fn transfer_inst(
        &mut self,
        pc: u64,
        inst: &Inst,
        state: &mut State,
        is_main: bool,
        collect: bool,
    ) {
        match *inst {
            Inst::Li { dst, imm } => state.set(dst, AbsVal::val(imm)),
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.read(src1, state, pc, is_main, collect);
                let b = self.read(src2, state, pc, is_main, collect);
                state.set(dst, eval_alu(op, &a, &b));
            }
            Inst::AluImm { op, dst, src, imm } => {
                let a = self.read(src, state, pc, is_main, collect);
                state.set(dst, eval_alu(op, &a, &AbsVal::val(imm)));
            }
            Inst::Load {
                dst,
                base,
                offset,
                size,
                ..
            } => {
                let b = self.read(base, state, pc, is_main, collect);
                self.check_access(pc, &b, offset, size.bytes(), false, state, collect);
                state.set(dst, AbsVal::Top);
            }
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => {
                let _ = self.read(src, state, pc, is_main, collect);
                let b = self.read(base, state, pc, is_main, collect);
                self.check_access(pc, &b, offset, size.bytes(), true, state, collect);
            }
            Inst::Branch { src1, src2, .. } => {
                let _ = self.read(src1, state, pc, is_main, collect);
                let _ = self.read(src2, state, pc, is_main, collect);
            }
            Inst::Jal { dst, .. } => {
                state.set(dst, AbsVal::num(SInt::val((pc + PC_STEP) as i64)));
            }
            Inst::Jalr { dst, base, .. } => {
                let _ = self.read(base, state, pc, is_main, collect);
                state.set(dst, AbsVal::Top);
            }
            Inst::Arm { addr } => {
                let v = self.read(addr, state, pc, is_main, collect);
                self.do_arm(pc, &v, state, collect);
            }
            Inst::Disarm { addr } => {
                let v = self.read(addr, state, pc, is_main, collect);
                self.do_disarm(pc, &v, state, collect);
            }
            Inst::Ecall => self.do_ecall(pc, state, is_main, collect),
            Inst::Halt | Inst::Nop => {}
        }
    }

    // -- arm / disarm --------------------------------------------------

    fn resolve_loc(&self, v: &AbsVal) -> Option<Loc> {
        match v {
            AbsVal::Num { val, .. } => val.singleton().map(|c| Loc::Abs(c as u64)),
            AbsVal::SpRel { off } => off.singleton().map(Loc::Sp),
            AbsVal::Ptr { site, off, .. } => off.singleton().map(|o| Loc::Heap(*site, o)),
            _ => None,
        }
    }

    fn do_arm(&mut self, pc: u64, v: &AbsVal, state: &mut State, collect: bool) {
        match self.resolve_loc(v) {
            Some(loc) => {
                if collect {
                    self.arm_records.insert((self.cur_fn, loc, pc));
                    match loc {
                        Loc::Abs(a) => {
                            self.abs_arms.insert(a);
                        }
                        Loc::Sp(o) => {
                            self.sp_arms.entry(self.cur_fn).or_default().insert(o);
                        }
                        Loc::Heap(site, _) => {
                            self.heap_arm_sites.insert(site);
                        }
                    }
                    if let Some(prev) = state.armed.get(&loc) {
                        if prev.must {
                            let at = prev.arm_pc;
                            self.report(
                                "rearm-redundant",
                                Severity::Warning,
                                pc,
                                format!(
                                    "{} is re-armed while already armed (first at pc {at:#x}); \
                                     the second arm re-fills an already-token-filled granule",
                                    loc.describe()
                                ),
                            );
                        }
                    }
                    if let Loc::Heap(site, off) = loc {
                        if self.site_aligned(site) && off.rem_euclid(GRANULE as i64) != 0 {
                            self.report(
                                "arm-alignment",
                                Severity::Warning,
                                pc,
                                format!("arm at {} is not {GRANULE}-byte aligned", loc.describe()),
                            );
                        }
                    }
                }
                state.armed.insert(
                    loc,
                    ArmInfo {
                        must: true,
                        arm_pc: pc,
                    },
                );
            }
            None => {
                state.armed_unknown = true;
                if collect {
                    self.unknown_arm = true;
                    self.report(
                        "arm-balance",
                        Severity::Warning,
                        pc,
                        "arm at an address the analysis cannot resolve; balance checking \
                         is suppressed downstream"
                            .into(),
                    );
                }
            }
        }
    }

    fn do_disarm(&mut self, pc: u64, v: &AbsVal, state: &mut State, collect: bool) {
        let Some(loc) = self.resolve_loc(v) else {
            // A disarm over a *range* of offsets into one allocation:
            // when no offset the range can reach is ever armed on any
            // path, every concrete execution disarms an unarmed
            // location, which raises a REST exception.
            if let AbsVal::Ptr { site, off, .. } = v {
                if !state.armed_unknown && self.range_never_armed(*site, off, state) {
                    if collect {
                        self.report(
                            "disarm-unarmed",
                            Severity::MustTrap,
                            pc,
                            format!(
                                "disarm sweep over alloc#{site}+{off}: no reachable offset \
                                 is ever armed, so the first disarm raises a REST exception"
                            ),
                        );
                    }
                    return;
                }
            }
            // Unknown address: could disarm anything armed on this path.
            for a in state.armed.values_mut() {
                a.must = false;
            }
            return;
        };
        if let Some(info) = state.armed.remove(&loc) {
            if collect && !info.must {
                self.report(
                    "disarm-unarmed",
                    Severity::Warning,
                    pc,
                    format!(
                        "{} is disarmed but only armed on some paths (unarmed paths trap)",
                        loc.describe()
                    ),
                );
            }
            return;
        }
        if state.armed_unknown {
            return;
        }
        // Not guest-armed: allocator-armed regions are fine to identify.
        if let Loc::Heap(site, off) = loc {
            let info = &self.sites[site];
            if info.has_allocator_redzones() {
                if let (Some(padded), Some(rz)) = (info.padded_size(), info.redzone_len()) {
                    let (p, r) = (padded as i64, rz as i64);
                    if (-r..0).contains(&off) || (p..p + r).contains(&off) {
                        if collect {
                            self.report(
                                "disarm-unarmed",
                                Severity::Warning,
                                pc,
                                format!(
                                    "guest code disarms an allocator redzone token at {}",
                                    loc.describe()
                                ),
                            );
                        }
                        return;
                    }
                } else {
                    return; // unknown geometry: stay silent
                }
            }
            if state.freed.contains_key(&site) {
                if collect {
                    self.report(
                        "disarm-unarmed",
                        Severity::Warning,
                        pc,
                        format!("disarm of token-filled freed memory at {}", loc.describe()),
                    );
                }
                return;
            }
        }
        if collect {
            self.report(
                "disarm-unarmed",
                Severity::MustTrap,
                pc,
                format!(
                    "{} is never armed on any path: this disarm raises a REST exception",
                    loc.describe()
                ),
            );
        }
    }

    /// Whether no offset in `off`'s range (each disarm touching one
    /// granule) can alias a location that is armed — by the guest or by
    /// the allocator — on any path. Requires a known lower bound;
    /// unknown chunk geometry counts as possibly armed.
    fn range_never_armed(&self, site: SiteId, off: &SInt, state: &State) -> bool {
        let Some(lo) = off.lo else {
            return false;
        };
        let end = off.hi.map(|h| h + GRANULE as i64);
        let overlaps = |alo: i64, aend: i64| alo < end.unwrap_or(i64::MAX) && aend > lo;
        for loc in state.armed.keys() {
            if let Loc::Heap(s, o) = loc {
                if *s == site && overlaps(*o, *o + GRANULE as i64) {
                    return false;
                }
            }
        }
        let info = &self.sites[site];
        if info.has_allocator_redzones() {
            let (Some(padded), Some(rz)) = (info.padded_size(), info.redzone_len()) else {
                return false;
            };
            let (p, r) = (padded as i64, rz as i64);
            if overlaps(-r, 0) || overlaps(p, p + r) {
                return false;
            }
        }
        // Freed chunks are token-filled: a disarm there "succeeds" in
        // clearing a token, so it is not an unarmed disarm.
        if state.freed.contains_key(&site) {
            return false;
        }
        true
    }

    fn site_aligned(&self, site: SiteId) -> bool {
        match self.sites[site].kind {
            AllocKind::Sbrk => self.sbrk_aligned,
            _ => true, // the allocator token-aligns user areas
        }
    }

    // -- ecalls --------------------------------------------------------

    fn site_for(&mut self, pc: u64, kind: AllocKind, size: Option<u64>) -> SiteId {
        let at = ((pc - Program::CODE_BASE) / PC_STEP) as usize;
        if let Some(s) = self.site_at[at] {
            let info = &mut self.sites[s];
            if info.size != size {
                info.size_conflict = true;
            }
            return s;
        }
        let s = self.sites.len();
        self.sites.push(SiteInfo {
            pc,
            kind,
            size,
            size_conflict: false,
            stored: false,
            first_load: None,
        });
        self.site_at[at] = Some(s);
        s
    }

    fn do_ecall(&mut self, pc: u64, state: &mut State, is_main: bool, collect: bool) {
        let num = match state.get(Reg::A7) {
            AbsVal::Num { val, .. } => val.singleton().and_then(|n| {
                if n >= 0 {
                    EcallNum::from_u64(n as u64)
                } else {
                    None
                }
            }),
            _ => None,
        };
        let Some(num) = num else {
            if collect {
                self.report(
                    "ecall-abi",
                    Severity::Error,
                    pc,
                    "ecall with an unresolvable or invalid service number in a7".into(),
                );
            }
            // Unknown service: clobber a0, assume no other effect.
            state.set(Reg::A0, AbsVal::Top);
            return;
        };
        let arg = |state: &State, r: Reg| state.get(r);
        let size_of = |v: &AbsVal| match v {
            AbsVal::Num { val, .. } => val.singleton().filter(|s| *s >= 0).map(|s| s as u64),
            _ => None,
        };
        match num {
            EcallNum::Malloc => {
                let size = size_of(&arg(state, Reg::A0));
                if collect && matches!(arg(state, Reg::A0), AbsVal::Undef) {
                    self.report(
                        "ecall-abi",
                        Severity::Error,
                        pc,
                        "malloc size argument a0 is never written".into(),
                    );
                }
                let site = self.site_for(pc, AllocKind::Malloc, size);
                state.freed.remove(&site);
                state.set(
                    Reg::A0,
                    AbsVal::Ptr {
                        site,
                        off: SInt::val(0),
                        delta: false,
                    },
                );
            }
            EcallNum::Calloc => {
                let size = match (size_of(&arg(state, Reg::A0)), size_of(&arg(state, Reg::A1))) {
                    (Some(n), Some(sz)) => n.checked_mul(sz),
                    _ => None,
                };
                let site = self.site_for(pc, AllocKind::Calloc, size);
                self.sites[site].stored = true; // zeroed
                state.freed.remove(&site);
                state.set(
                    Reg::A0,
                    AbsVal::Ptr {
                        site,
                        off: SInt::val(0),
                        delta: false,
                    },
                );
            }
            EcallNum::Realloc => {
                // The runtime allocates anew, copies, and frees the old
                // chunk.
                match arg(state, Reg::A0) {
                    AbsVal::Ptr { site, off, .. } => {
                        if collect {
                            self.may_freed.insert(site);
                        }
                        if off.singleton() == Some(0) {
                            self.note_free(pc, site, state, collect);
                        }
                    }
                    // realloc(NULL, n) behaves as malloc: nothing freed.
                    AbsVal::Num { val, .. } if val.singleton() == Some(0) => {}
                    _ => {
                        if collect {
                            self.unknown_free = true;
                        }
                    }
                }
                let size = size_of(&arg(state, Reg::A1));
                let site = self.site_for(pc, AllocKind::Realloc, size);
                self.sites[site].stored = true; // holds copied contents
                state.freed.remove(&site);
                state.set(
                    Reg::A0,
                    AbsVal::Ptr {
                        site,
                        off: SInt::val(0),
                        delta: false,
                    },
                );
            }
            EcallNum::Sbrk => {
                let size = size_of(&arg(state, Reg::A0));
                if size.is_none_or(|s| s % GRANULE != 0) {
                    self.sbrk_aligned = false;
                }
                let site = self.site_for(pc, AllocKind::Sbrk, size);
                self.sites[site].stored = true; // fresh zero pages
                state.set(
                    Reg::A0,
                    AbsVal::Ptr {
                        site,
                        off: SInt::val(0),
                        delta: false,
                    },
                );
            }
            EcallNum::Free => {
                match arg(state, Reg::A0) {
                    AbsVal::Ptr { site, off, .. } => {
                        if collect {
                            self.may_freed.insert(site);
                        }
                        match off.singleton() {
                            Some(0) => self.note_free(pc, site, state, collect),
                            Some(o) => {
                                if collect {
                                    self.report(
                                        "ecall-abi",
                                        Severity::Error,
                                        pc,
                                        format!(
                                            "free of an interior pointer (allocation base {o:+} \
                                             bytes); the allocator rejects non-base pointers"
                                        ),
                                    );
                                }
                            }
                            None => {
                                // May free: every prior must-freed stays must;
                                // this site becomes may-freed.
                                state.freed.insert_if_absent(site, false);
                            }
                        }
                    }
                    AbsVal::Undef => {
                        let _ = self.read(Reg::A0, state, pc, is_main, collect);
                        if collect {
                            self.unknown_free = true;
                        }
                    }
                    // free(NULL) is a no-op.
                    AbsVal::Num { val, .. } if val.singleton() == Some(0) => {}
                    _ => {
                        if collect {
                            self.unknown_free = true;
                        }
                    }
                }
                state.set(Reg::A0, AbsVal::val(0));
            }
            EcallNum::Memcpy => {
                let dst = arg(state, Reg::A0);
                let src = arg(state, Reg::A1);
                if let Some(len) = size_of(&arg(state, Reg::A2)).filter(|l| *l > 0) {
                    self.check_span(pc, &src, len, false, state, collect);
                    self.check_span(pc, &dst, len, true, state, collect);
                } else {
                    if let AbsVal::Ptr { site, .. } = dst {
                        self.sites[site].stored = true;
                    } else if !matches!(dst, AbsVal::Num { .. } | AbsVal::SpRel { .. }) {
                        self.unknown_store = true;
                    }
                }
                // a0 (the destination) is returned unchanged.
            }
            EcallNum::Memset => {
                let dst = arg(state, Reg::A0);
                if let Some(len) = size_of(&arg(state, Reg::A2)).filter(|l| *l > 0) {
                    self.check_span(pc, &dst, len, true, state, collect);
                } else if let AbsVal::Ptr { site, .. } = dst {
                    self.sites[site].stored = true;
                } else if !matches!(dst, AbsVal::Num { .. } | AbsVal::SpRel { .. }) {
                    self.unknown_store = true;
                }
            }
            EcallNum::PutChar => {
                let _ = self.read(Reg::A0, state, pc, is_main, collect);
                state.set(Reg::A0, AbsVal::val(0));
            }
            EcallNum::Exit => {
                let _ = self.read(Reg::A0, state, pc, is_main, collect);
            }
        }
    }

    fn note_free(&mut self, pc: u64, site: SiteId, state: &mut State, collect: bool) {
        if collect && state.freed.get(&site) == Some(&true) {
            let at = self.sites[site].pc;
            self.report(
                "double-free",
                Severity::MustTrap,
                pc,
                format!(
                    "allocation from pc {at:#x} is freed twice on this path; the freed \
                     chunk is token-filled, so the second free raises"
                ),
            );
        }
        state.freed.insert(site, true);
    }

    // -- memory accesses ----------------------------------------------

    /// A contiguous `len`-byte span starting at `base` (memcpy/memset).
    fn check_span(
        &mut self,
        pc: u64,
        base: &AbsVal,
        len: u64,
        store: bool,
        state: &State,
        collect: bool,
    ) {
        self.check_access(pc, base, 0, len, store, state, collect);
    }

    /// Checks one access of `width` bytes at `base + offset`.
    #[allow(clippy::too_many_arguments)]
    fn check_access(
        &mut self,
        pc: u64,
        base: &AbsVal,
        offset: i64,
        width: u64,
        store: bool,
        state: &State,
        collect: bool,
    ) {
        let what = if store { "store" } else { "load" };
        match base {
            AbsVal::Ptr { site, off, delta } => {
                let site = *site;
                let info = &mut self.sites[site];
                if store {
                    info.stored = true;
                } else {
                    info.first_load.get_or_insert(pc);
                }
                if collect && *delta {
                    self.report(
                        "cross-alloc",
                        Severity::Warning,
                        pc,
                        format!(
                            "{what} through pointer arithmetic spanning distinct allocations \
                             (redzone-jumping stride; REST detects it only with decoy-token \
                             sprinkling)"
                        ),
                    );
                }
                if !collect {
                    return;
                }
                let off = off.add(&SInt::val(offset));
                let (Some(lo), Some(hi)) = (off.lo, off.hi) else {
                    return; // unbounded: never report
                };
                let end = hi + width as i64;
                let contiguous = off.stride <= width; // the accesses tile [lo, end)
                let info = self.sites[site].clone();
                // Freed chunks are token-filled over their whole extent.
                if let Some(&must) = state.freed.get(&site) {
                    let at = info.pc;
                    let (sev, detail) = if must {
                        (Severity::MustTrap, "freed on every path")
                    } else {
                        (Severity::Warning, "freed on some paths")
                    };
                    self.report(
                        "use-after-free",
                        sev,
                        pc,
                        format!(
                            "{what} through a dangling pointer into the allocation from pc \
                             {at:#x} ({detail}); freed chunks are token-filled"
                        ),
                    );
                    return;
                }
                // Armed byte ranges for this site: guest arms + the
                // allocator's redzones.
                let mut armed_ranges: Vec<(i64, i64, bool)> = state
                    .armed
                    .iter()
                    .filter_map(|(loc, a)| match loc {
                        Loc::Heap(s, o) if *s == site => Some((*o, *o + GRANULE as i64, a.must)),
                        _ => None,
                    })
                    .collect();
                if info.has_allocator_redzones() {
                    if let (Some(padded), Some(rz)) = (info.padded_size(), info.redzone_len()) {
                        let (p, r) = (padded as i64, rz as i64);
                        armed_ranges.push((-r, 0, true));
                        armed_ranges.push((p, p + r, true));
                    }
                }
                for (alo, aend, must) in armed_ranges {
                    if lo < aend && end > alo {
                        let sev = if must && contiguous {
                            Severity::MustTrap
                        } else {
                            Severity::Warning
                        };
                        let at = info.pc;
                        self.report(
                            "armed-access",
                            sev,
                            pc,
                            format!(
                                "{what} at offsets {off}+{width} of the allocation from pc \
                                 {at:#x} overlaps the armed region [{alo}, {aend}) and raises \
                                 a REST exception"
                            ),
                        );
                        return;
                    }
                }
                // In the token-alignment padding: the §V-C false
                // negative. Only meaningful for allocator chunks — sbrk
                // regions are contiguous data-segment growth with no
                // padding contract.
                if let (true, Some(size), Some(padded)) = (
                    info.has_allocator_redzones(),
                    info.usable_size(),
                    info.padded_size(),
                ) {
                    if end > size as i64 && lo < padded as i64 {
                        let at = info.pc;
                        self.report(
                            "padding-gap",
                            Severity::Warning,
                            pc,
                            format!(
                                "{what} at offsets {off}+{width} runs past the {size}-byte \
                                 allocation from pc {at:#x} but stays inside its token-alignment \
                                 padding — undetectable by {GRANULE} B tokens (§V-C)"
                            ),
                        );
                    }
                }
            }
            AbsVal::SpRel { off } => {
                self.fns_with_sp_access[self.cur_fn] = true;
                if !collect {
                    return;
                }
                let off = off.add(&SInt::val(offset));
                let (Some(lo), Some(hi)) = (off.lo, off.hi) else {
                    return;
                };
                let end = hi + width as i64;
                let contiguous = off.stride <= width;
                for (loc, a) in &state.armed {
                    if let Loc::Sp(o) = loc {
                        if lo < *o + GRANULE as i64 && end > *o {
                            let sev = if a.must && contiguous {
                                Severity::MustTrap
                            } else {
                                Severity::Warning
                            };
                            let at = a.arm_pc;
                            self.report(
                                "armed-access",
                                sev,
                                pc,
                                format!(
                                    "{what} at sp offsets {off}+{width} overlaps the frame \
                                     redzone armed at pc {at:#x} and raises a REST exception"
                                ),
                            );
                            return;
                        }
                    }
                }
            }
            AbsVal::Num { val, .. } => {
                self.has_abs_access = true;
                if !collect {
                    return;
                }
                let off = val.add(&SInt::val(offset));
                let (Some(lo), Some(hi)) = (off.lo, off.hi) else {
                    return;
                };
                let end = hi + width as i64;
                if store && lo < self.code_end as i64 && end > Program::CODE_BASE as i64 {
                    self.report(
                        "store-to-code",
                        Severity::Error,
                        pc,
                        format!("store at {off} overlaps the code segment"),
                    );
                    return;
                }
                let contiguous = off.stride <= width;
                for (loc, a) in &state.armed {
                    if let Loc::Abs(addr) = loc {
                        let (alo, aend) = (*addr as i64, *addr as i64 + GRANULE as i64);
                        if lo < aend && end > alo {
                            let sev = if a.must && contiguous {
                                Severity::MustTrap
                            } else {
                                Severity::Warning
                            };
                            let at = a.arm_pc;
                            self.report(
                                "armed-access",
                                sev,
                                pc,
                                format!(
                                    "{what} at {off}+{width} overlaps the region armed at pc \
                                     {at:#x} and raises a REST exception"
                                ),
                            );
                            return;
                        }
                    }
                }
            }
            AbsVal::Top | AbsVal::Undef => {
                self.unknown_access = true;
                if store {
                    self.unknown_store = true;
                }
            }
        }
    }

    // -- function / program exits -------------------------------------

    fn check_return(&mut self, pc: u64, state: &State) {
        match state.get(Reg::SP) {
            AbsVal::SpRel { off } if off.singleton() == Some(0) => {}
            AbsVal::SpRel { off } => {
                self.report(
                    "stack-discipline",
                    Severity::Error,
                    pc,
                    format!("sp is off by {off} at function return"),
                );
            }
            _ => {
                self.report(
                    "stack-discipline",
                    Severity::Error,
                    pc,
                    "sp does not derive from the entry sp at function return".into(),
                );
            }
        }
        for (loc, a) in &state.armed {
            if matches!(loc, Loc::Sp(_)) {
                let at = a.arm_pc;
                let path = if a.must { "every path" } else { "a path" };
                self.report(
                    "arm-balance",
                    Severity::Error,
                    pc,
                    format!(
                        "frame token at {} armed at pc {at:#x} is still armed on {path} \
                         reaching this return: the frame leaks blacklisted stack memory",
                        loc.describe()
                    ),
                );
            }
        }
    }

    fn check_exit(&mut self, pc: u64, state: &State) {
        for (loc, a) in &state.armed {
            let at = a.arm_pc;
            match loc {
                Loc::Sp(_) | Loc::Abs(_) => {
                    self.report(
                        "arm-balance",
                        Severity::Error,
                        pc,
                        format!(
                            "stack token at {} armed at pc {at:#x} is still armed at program \
                             exit (leaked blacklisted memory)",
                            loc.describe()
                        ),
                    );
                }
                Loc::Heap(..) => {
                    self.report(
                        "arm-balance",
                        Severity::Warning,
                        pc,
                        format!(
                            "heap token at {} armed at pc {at:#x} is never disarmed before \
                             program exit",
                            loc.describe()
                        ),
                    );
                }
            }
        }
    }
}

/// Hands `emit` the in-state of each feasible successor of `block`,
/// given its out-state in `state`: a taken edge is refined by the branch
/// condition, an edge into the branch's fall-through block by the
/// negated condition, and a call's return edge (its block's only edge)
/// clobbers the caller-saved registers. Refinements are made in `state`
/// and undone before the next edge, so no edge copies the state; a call
/// edge leaves `state` clobbered.
fn for_each_edge(
    cfg: &Cfg,
    program: &Program,
    block: &Block,
    state: &mut State,
    mut emit: impl FnMut(usize, &State),
) {
    let last = program.fetch(block.end - PC_STEP).expect("pc in range");
    let (not_taken, src1, src2) = match last {
        Inst::Branch { src1, src2, .. } => {
            let fall = block.succs.iter().find_map(|s| match *s {
                Succ::Fall(t) => cfg.block_at(t),
                _ => None,
            });
            (fall, src1, src2)
        }
        _ => (None, Reg::ZERO, Reg::ZERO),
    };
    let unrefined = (state.get(src1), state.get(src2));
    for &succ in &block.succs {
        let target = match succ {
            Succ::Fall(t) | Succ::Taken(t) | Succ::Jump(t) => t,
            Succ::CallReturn { ret, .. } => ret,
            Succ::Ret | Succ::Exit | Succ::Indirect | Succ::FallsOffEnd => continue,
        };
        let Some(ni) = cfg.block_at(target) else {
            continue;
        };
        let feasible = match succ {
            Succ::Taken(_) => refine_branch(&last, state, true),
            Succ::CallReturn { .. } => {
                debug_assert_eq!(block.succs.len(), 1, "a call block has one edge");
                after_call(state);
                true
            }
            _ => true,
        };
        if feasible && (not_taken != Some(ni) || refine_branch(&last, state, false)) {
            emit(ni, state);
        }
        state.regs[src1.index()] = unrefined.0;
        state.regs[src2.index()] = unrefined.1;
    }
}

/// Refines `state` in place along the `taken`/not-taken edge of
/// `branch`; `false` means the edge is infeasible (the state is then
/// partially refined and must be dropped).
pub(crate) fn refine_branch(branch: &Inst, state: &mut State, taken: bool) -> bool {
    let Inst::Branch {
        cond, src1, src2, ..
    } = *branch
    else {
        return true;
    };
    let v1 = state.get(src1);
    let v2 = state.get(src2);
    if let (AbsVal::Num { val: a, delta }, Some(c)) = (v1, num_singleton(&v2)) {
        let Some(refined) = refine_int(&a, cond, c, taken, true) else {
            return false;
        };
        state.set(
            src1,
            AbsVal::Num {
                val: refined,
                delta,
            },
        );
    }
    if let (Some(c), AbsVal::Num { val: b, delta }) = (num_singleton(&v1), v2) {
        let Some(refined) = refine_int(&b, cond, c, taken, false) else {
            return false;
        };
        state.set(
            src2,
            AbsVal::Num {
                val: refined,
                delta,
            },
        );
    }
    true
}

fn num_singleton(v: &AbsVal) -> Option<i64> {
    match v {
        AbsVal::Num { val, .. } => val.singleton(),
        _ => None,
    }
}

/// Refines interval `a` under `a <cond> c` (when `a_is_lhs`) or
/// `c <cond> a`, on the taken or fall-through edge.
fn refine_int(a: &SInt, cond: BranchCond, c: i64, taken: bool, a_is_lhs: bool) -> Option<SInt> {
    match rel_kind(cond, a_is_lhs, taken) {
        RefKind::Eq => {
            if a.contains(c) {
                Some(SInt::val(c))
            } else {
                None
            }
        }
        RefKind::Ne => {
            if a.singleton() == Some(c) {
                return None;
            }
            let mut out = *a;
            if out.lo == Some(c) {
                // c == i64::MAX leaves no value above it: infeasible.
                out = out.clamp(Some(c.checked_add(1)?), None)?;
            }
            if out.hi == Some(c) {
                out = out.clamp(None, Some(c.checked_sub(1)?))?;
            }
            Some(out)
        }
        RefKind::Lt => a.clamp(None, Some(c.checked_sub(1)?)),
        RefKind::Le => a.clamp(None, Some(c)),
        RefKind::Gt => a.clamp(Some(c.checked_add(1)?), None),
        RefKind::Ge => a.clamp(Some(c), None),
        RefKind::LtuNonNeg => {
            // a <u c with c ≥ 0 pins a into [0, c-1] regardless of the
            // prior signed bounds (the high bit must be clear).
            if c == 0 {
                return None;
            }
            a.clamp(Some(0), Some(c - 1))
        }
        RefKind::GeuNonNeg => {
            // a ≥u c: only usable when a is already known non-negative.
            if a.lo.is_some_and(|l| l >= 0) {
                a.clamp(Some(c), None)
            } else {
                Some(*a)
            }
        }
        RefKind::None => Some(*a),
    }
}

enum RefKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LtuNonNeg,
    GeuNonNeg,
    None,
}

fn rel_kind(cond: BranchCond, a_is_lhs: bool, taken: bool) -> RefKind {
    use BranchCond::*;
    match (cond, a_is_lhs, taken) {
        (Eq, _, true) | (Ne, _, false) => RefKind::Eq,
        (Eq, _, false) | (Ne, _, true) => RefKind::Ne,
        (Lt, true, true) | (Ge, true, false) => RefKind::Lt,
        (Lt, true, false) | (Ge, true, true) => RefKind::Ge,
        (Lt, false, true) | (Ge, false, false) => RefKind::Gt,
        (Lt, false, false) | (Ge, false, true) => RefKind::Le,
        (Ltu, true, true) | (Geu, true, false) => RefKind::LtuNonNeg,
        (Ltu, true, false) | (Geu, true, true) => RefKind::GeuNonNeg,
        (Ltu, false, _) | (Geu, false, _) => RefKind::None,
    }
}

/// Register effects of a call on the caller's state: the standard
/// calling convention clobbers `ra`, `tp`, `t0–t6`, and `a0–a7`,
/// preserves `sp`/`gp`/`s0–s11`. Must-freed facts are demoted to may —
/// a callee can recycle a site's static allocation.
fn after_call(state: &mut State) {
    for r in Reg::all().filter(|r| caller_saved(*r)) {
        state.regs[r.index()] = AbsVal::Top;
    }
    for must in state.freed.values_mut() {
        *must = false;
    }
}

/// Whether a call may clobber `r`: `ra`, `tp`, `t0–t6` and `a0–a7`.
fn caller_saved(r: Reg) -> bool {
    matches!(r.index(), 1 | 4..=7 | 10..=17 | 28..=31)
}

fn eval_alu(op: AluOp, a: &AbsVal, b: &AbsVal) -> AbsVal {
    use AbsVal::*;
    let delta = a.is_delta() || b.is_delta();
    match op {
        AluOp::Add => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => Num {
                val: x.add(y),
                delta,
            },
            (Ptr { site, off, .. }, Num { val, .. }) | (Num { val, .. }, Ptr { site, off, .. }) => {
                Ptr {
                    site: *site,
                    off: off.add(val),
                    delta,
                }
            }
            (SpRel { off }, Num { val, .. }) | (Num { val, .. }, SpRel { off }) => {
                SpRel { off: off.add(val) }
            }
            _ => Top,
        },
        AluOp::Sub => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => Num {
                val: x.sub(y),
                delta,
            },
            (Ptr { site, off, .. }, Num { val, .. }) => Ptr {
                site: *site,
                off: off.sub(val),
                delta,
            },
            (SpRel { off }, Num { val, .. }) => SpRel { off: off.sub(val) },
            (
                Ptr {
                    site: s1, off: o1, ..
                },
                Ptr {
                    site: s2, off: o2, ..
                },
            ) => {
                if s1 == s2 {
                    Num {
                        val: o1.sub(o2),
                        delta,
                    }
                } else {
                    // Distance between distinct allocations: the §V-C
                    // redzone-jumping stride. Numerically unknown.
                    Num {
                        val: SInt::top(),
                        delta: true,
                    }
                }
            }
            _ => Top,
        },
        AluOp::Mul => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => Num {
                val: x.mul(y),
                delta,
            },
            _ => Top,
        },
        AluOp::And => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => {
                let v = if let Some(m) = y.singleton() {
                    x.and_mask(m)
                } else if let Some(m) = x.singleton() {
                    y.and_mask(m)
                } else {
                    SInt::top()
                };
                Num { val: v, delta }
            }
            // Pointer align-down: sound when the base is granule-aligned.
            (Ptr { site, off, .. }, Num { val, .. }) | (Num { val, .. }, Ptr { site, off, .. }) => {
                match val.singleton() {
                    Some(m) if m < 0 && (m.wrapping_neg() as u64).is_power_of_two() => {
                        let g = m.wrapping_neg() as u64;
                        if g <= GRANULE {
                            Ptr {
                                site: *site,
                                off: off.and_mask(m),
                                delta,
                            }
                        } else {
                            Top
                        }
                    }
                    _ => Top,
                }
            }
            _ => Top,
        },
        AluOp::Or | AluOp::Xor => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => match (x.singleton(), y.singleton()) {
                (Some(p), Some(q)) => Num {
                    val: SInt::val(if op == AluOp::Or { p | q } else { p ^ q }),
                    delta,
                },
                _ => Num {
                    val: SInt::top(),
                    delta,
                },
            },
            _ => Top,
        },
        AluOp::Div | AluOp::Rem => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => match (x.singleton(), y.singleton()) {
                (Some(p), Some(q)) if q != 0 => Num {
                    val: SInt::val(if op == AluOp::Div { p / q } else { p % q }),
                    delta,
                },
                _ => Num {
                    val: SInt::top(),
                    delta,
                },
            },
            _ => Top,
        },
        AluOp::Sll => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => Num {
                val: x.shl(y),
                delta,
            },
            _ => Top,
        },
        AluOp::Srl | AluOp::Sra => match (a, b) {
            (Num { val: x, .. }, Num { val: y, .. }) => Num {
                val: x.lshr(y),
                delta,
            },
            _ => Top,
        },
        AluOp::Slt | AluOp::Sltu => match (a, b) {
            (Num { .. }, Num { .. }) => Num {
                val: SInt::range(0, 1),
                delta,
            },
            _ => Num {
                val: SInt::range(0, 1),
                delta: false,
            },
        },
        // Any op the mini-ISA grows later defaults to no information.
        #[allow(unreachable_patterns)]
        _ => Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_isa::ProgramBuilder;

    fn arm(must: bool, arm_pc: u64) -> ArmInfo {
        ArmInfo { must, arm_pc }
    }

    fn armed(state: &State) -> Vec<(Loc, ArmInfo)> {
        state.armed.iter().copied().collect()
    }

    fn freed(state: &State) -> Vec<(SiteId, bool)> {
        state.freed.iter().copied().collect()
    }

    #[test]
    fn join_keeps_must_only_when_both_sides_agree_and_demotes_one_sided_keys() {
        let mut a = State::entry(false);
        a.armed.insert(Loc::Sp(-64), arm(true, 0x10));
        a.armed.insert(Loc::Abs(0x5000), arm(true, 0x20));
        a.armed.insert(Loc::Heap(1, 0), arm(false, 0x30));
        a.freed.insert(0, true);
        a.freed.insert(2, true);
        let mut b = State::entry(false);
        b.armed.insert(Loc::Abs(0x5000), arm(true, 0x18));
        b.armed.insert(Loc::Heap(0, 64), arm(true, 0x40));
        b.armed.insert(Loc::Heap(1, 0), arm(true, 0x28));
        b.freed.insert(1, true);
        b.freed.insert(2, false);

        assert!(a.join_into(&b, RegSet::ALL));
        // Ascending key order, as a BTreeMap would iterate.
        assert_eq!(
            armed(&a),
            vec![
                // Both sides must: stays must, earliest arm PC.
                (Loc::Abs(0x5000), arm(true, 0x18)),
                // One side only: armed on some paths.
                (Loc::Sp(-64), arm(false, 0x10)),
                (Loc::Heap(0, 64), arm(false, 0x40)),
                // Both sides, one may: may.
                (Loc::Heap(1, 0), arm(false, 0x28)),
            ]
        );
        assert_eq!(freed(&a), vec![(0, false), (1, false), (2, false)]);
    }

    #[test]
    fn join_into_reports_exactly_whether_the_state_changed() {
        let base = State::entry(true);
        let mut s = base.clone();
        assert!(!s.join_into(&base, RegSet::ALL), "joining an equal state");
        assert_eq!(s, base);

        // A differing register widens the interval: changed, then stable.
        let mut other = base.clone();
        s.set(Reg::T0, AbsVal::val(1));
        other.set(Reg::T0, AbsVal::val(3));
        assert!(s.join_into(&other, RegSet::ALL));
        assert_eq!(
            s.get(Reg::T0),
            AbsVal::num(SInt {
                lo: Some(1),
                hi: Some(3),
                stride: 2
            })
        );
        assert!(!s.join_into(&other, RegSet::ALL));

        // A key on one side only is new; after the demotion, joining the
        // same side again changes nothing.
        other.armed.insert(Loc::Sp(0), arm(true, 0x40));
        assert!(s.join_into(&other, RegSet::ALL));
        assert!(!s.join_into(&other, RegSet::ALL));
        // Demoting a must entry the other side lacks is a change.
        let mut t = other.clone();
        assert!(t.join_into(&base, RegSet::ALL));
        assert_eq!(armed(&t), vec![(Loc::Sp(0), arm(false, 0x40))]);

        // The unknown-arm flag only ever turns on.
        let mut unknown = base.clone();
        unknown.armed_unknown = true;
        let mut u = base.clone();
        assert!(u.join_into(&unknown, RegSet::ALL));
        assert!(!u.join_into(&base, RegSet::ALL));
        assert!(u.armed_unknown);
    }

    #[test]
    fn written_registers_cover_ecall_results_branch_operands_and_call_clobbers() {
        let regs = |program: &Program, fi: usize| {
            let cfg = Cfg::build(program);
            RegSet::written_in(program, &cfg, &cfg.functions[fi])
                .iter()
                .collect::<Vec<_>>()
        };
        let idx = |rs: &[Reg]| {
            let mut v: Vec<usize> = rs.iter().map(|r| r.index()).collect();
            v.sort_unstable();
            v
        };

        // `ecall` writes a0 (and its `li a7`); a branch refines both
        // operands; a write to `zero` is dropped.
        let mut p = ProgramBuilder::new();
        let skip = p.new_label();
        p.ecall(EcallNum::Malloc);
        p.beq(Reg::S1, Reg::S2, skip);
        p.li(Reg::ZERO, 3);
        p.bind(skip);
        p.halt();
        let program = p.build();
        assert_eq!(
            regs(&program, 0),
            idx(&[Reg::A0, Reg::A7, Reg::S1, Reg::S2])
        );

        // A call's return edge clobbers every caller-saved register; a
        // `ret` writes nothing.
        let mut p = ProgramBuilder::new();
        let f = p.new_label();
        p.call(f);
        p.halt();
        p.bind(f);
        p.ret();
        let program = p.build();
        let caller_saved: Vec<Reg> = Reg::all().filter(|r| caller_saved(*r)).collect();
        assert_eq!(regs(&program, 0), idx(&caller_saved));
        assert_eq!(regs(&program, 1), Vec::<usize>::new());
    }

    #[test]
    fn counting_loop_bound_survives_widening_and_narrowing() {
        // t0 counts 0..16; the loop header joins more often than
        // WIDEN_AFTER, so widening drops t0's upper bound and the
        // back edge's `t0 < 16` guard has to win it back.
        let mut p = ProgramBuilder::new();
        p.li(Reg::T1, 16);
        p.li(Reg::T0, 0);
        let top = p.label_here();
        p.addi(Reg::T0, Reg::T0, 1);
        p.blt(Reg::T0, Reg::T1, top);
        p.halt();
        let program = p.build();
        let mut an = Analyzer::new(&program);
        an.keep_states = true;
        an.execute();
        let func = &an.cfg.functions[0];
        let at = |pc: u64| {
            let slot = func.slot(an.cfg.block_at(pc).unwrap()).unwrap();
            an.saved_states[0][slot].as_ref().unwrap().get(Reg::T0)
        };
        let header = Program::CODE_BASE + 2 * PC_STEP;
        assert_eq!(at(header), AbsVal::num(SInt::range(0, 15)));
        assert_eq!(at(header + 2 * PC_STEP), AbsVal::val(16), "exit edge");
    }

    #[test]
    fn in_state_slots_cover_only_each_functions_own_blocks() {
        // main calls f and g; each callee has a diamond of its own.
        let mut p = ProgramBuilder::new();
        let (f, g) = (p.new_label(), p.new_label());
        p.call(f);
        p.call(g);
        p.halt();
        for label in [f, g] {
            let skip = p.new_label();
            p.bind(label);
            p.beq(Reg::A0, Reg::ZERO, skip);
            p.li(Reg::A0, 1);
            p.bind(skip);
            p.ret();
        }
        let program = p.build();
        let mut an = Analyzer::new(&program);
        an.keep_states = true;
        an.execute();
        let (functions, blocks) = (an.cfg.functions.len(), an.cfg.blocks.len());
        assert_eq!(functions, 3);
        let slots: Vec<usize> = an.saved_states.iter().map(Vec::len).collect();
        let members: Vec<usize> = an.cfg.functions.iter().map(|f| f.blocks.len()).collect();
        assert_eq!(slots, members);
        assert_eq!(
            slots.iter().sum::<usize>(),
            blocks,
            "every block in exactly one function"
        );
        assert!(slots.iter().all(|&n| n < blocks));
        // Every member block was reached, so each slot holds a state.
        assert!(an.saved_states.iter().flatten().all(Option::is_some));
    }
}
