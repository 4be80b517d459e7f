use rand::rngs::StdRng;
use rand::SeedableRng;

use rest_core::{
    ArmedSet, BackendFault, CheckUopKind, Mode, ProtectionBackend, RestException,
    RestExceptionKind, SiteTable, Token,
};
use rest_faults::{FaultHandle, FaultKind, MemEffect};
use rest_isa::{
    AluOp, BranchCond, BranchInfo, Component, DecodeOptions, DecodedProgram, DynInst, EcallNum,
    GuestMemory, GuestWrite, MemSize, Op, Program, Reg, PC_STEP,
};
use rest_runtime::{
    shadow, AsanReport, EcallOutcome, RtEnv, Runtime, Scheme, TrafficRecorder, Violation,
};

use crate::config::{ExecTier, SimConfig};
use crate::exec::ExecEngine;
use crate::profile::CheckCounters;
use crate::superblock::{self, TraceCache, TraceOp};

/// Why the emulated program stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// The program called `exit(code)`.
    Exit(i32),
    /// A memory-safety violation was detected (REST exception or ASan
    /// report, depending on the active scheme).
    Violation(Violation),
    /// The configured micro-op budget was exhausted.
    UopLimit,
    /// The configured guest cycle budget was exhausted (the watchdog
    /// against hung guests; see [`crate::SimConfig::max_cycles`]).
    CycleLimit,
    /// The machine faulted (bad PC, unknown ecall, …).
    Fault(String),
}

impl StopReason {
    /// Stable report name: `exit-<code>`, `halted`, `violation`,
    /// `uop-limit`, `cycle-limit` or `guest-fault`.
    pub fn name(&self) -> String {
        match self {
            StopReason::Exit(code) => format!("exit-{code}"),
            StopReason::Halted => "halted".to_string(),
            StopReason::Violation(_) => "violation".to_string(),
            StopReason::UopLimit => "uop-limit".to_string(),
            StopReason::CycleLimit => "cycle-limit".to_string(),
            StopReason::Fault(_) => "guest-fault".to_string(),
        }
    }
}

/// Micro-ops at which a replay window is handed over (its last
/// instruction may take it past them; an `ecall`, alone in its window,
/// may splice many more). Every instruction emits at least one
/// micro-op, so a window never holds more instructions than this.
pub(crate) const WINDOW_UOPS: usize = 64;

/// A replay window: consecutive instructions the emulator has run and
/// the timing model has not yet replayed (see [`Emulator::run_steps`]).
#[derive(Debug)]
pub(crate) struct Window {
    /// PC of the window's first instruction.
    pub pc: u64,
    len: usize,
    ends: [u32; WINDOW_UOPS],
}

impl Window {
    /// Where each instruction's micro-ops end, in order, counted from
    /// the window's first micro-op.
    pub fn ends(&self) -> &[u32] {
        &self.ends[..self.len]
    }
}

/// The functional emulator.
///
/// Executes guest instructions architecturally, ahead of the timing
/// pipeline, producing the oracle [`DynInst`] stream. Protection-scheme
/// behaviour is applied here exactly as the hardened binary would see it:
///
/// * under ASan, every application load/store is preceded by the
///   injected shadow-check micro-ops and validated against shadow
///   memory;
/// * under REST, every access is validated against the architectural
///   [`ArmedSet`] (the content-equivalent of the hardware's token-bit
///   check — see `rest_core::ArmedSet` docs), and `arm`/`disarm`
///   instructions enforce the alignment and armed-state rules of §III-A;
/// * `ecall`s are served by the [`Runtime`], whose recorded traffic is
///   spliced into the stream.
#[derive(Debug)]
pub struct Emulator {
    program: Program,
    regs: [u64; Reg::COUNT],
    pc: u64,
    /// Functional memory image (readable by the timing model's token
    /// detector).
    pub mem: GuestMemory,
    backend: Box<dyn ProtectionBackend>,
    token: Token,
    runtime: Runtime,
    rec: TrafficRecorder,
    /// Op and template tables (`None` on the reference path, which
    /// re-decodes every fetch). Invalidated on ARM/DISARM effects that
    /// land in the code segment.
    decoded: Option<DecodedProgram>,
    decode_opts: DecodeOptions,
    /// Superblock trace store (`Some` only on the trace tier).
    /// Invalidated together with `decoded` on ARM/DISARM code-segment
    /// writes.
    traces: Option<Box<TraceCache>>,
    stop: Option<StopReason>,
    /// Latched by `take_stop`: a taken emulator is permanently stopped.
    /// Without the latch, taking the reason would clear `stop` and make
    /// a later `step`/`step_quiet`/`run_functional` silently resume —
    /// exactly the loss mode consumers mixing the three entry points
    /// would hit.
    stop_taken: bool,
    insts: u64,
    uops: u64,
    /// The step runs only while `uops < cap`: the smaller of the two
    /// budgets, and 0 once a stop has been recorded or taken.
    cap: u64,
    max_uops: u64,
    max_cycles: u64,
    /// Shared fault-injection state (also cloned into the hierarchy).
    fault: Option<FaultHandle>,
    /// Fast flag: a `TokenByteFlip` fault is live and arm recording is on.
    fault_flip: bool,
    access_checks: bool,
    check_backend: bool,
    /// Fast flag: the backend stores metadata in the pointer itself, so
    /// addresses must be canonicalised before touching memory. False for
    /// REST/ASan/plain, keeping their address paths untouched.
    tagged_ptrs: bool,
    perfect_hw: bool,
    naive_wide_arm: bool,
    mode: Mode,
    /// Per-allocation-site check attribution (profiling runs only).
    sites: Option<Box<SiteTable>>,
    /// Per-PC check/check-uop counters (profiling runs only).
    pc_checks: Option<Box<CheckCounters>>,
    /// Dense per-PC elision verdicts (index `(pc - CODE_BASE)/PC_STEP`),
    /// built from [`SimConfig::elision`] when the active scheme actually
    /// checks accesses. `None` = nothing elided.
    elide: Option<Box<[bool]>>,
    /// Checks skipped via the elision map.
    elided_checks: u64,
}

impl Emulator {
    /// Creates an emulator for `program` under `cfg`, loading the
    /// program's data segments and generating the system token from
    /// `cfg.token_seed`.
    pub fn new(program: Program, cfg: &SimConfig) -> Emulator {
        let mut rng = StdRng::seed_from_u64(cfg.token_seed);
        let token = Token::generate(cfg.rt.token_width, &mut rng);
        let mut mem = GuestMemory::new();
        for (base, bytes) in program.data_segments() {
            mem.write_bytes(*base, bytes);
        }
        let entry = program.entry();
        let decode_opts = DecodeOptions {
            arm_width: cfg.rt.token_width.bytes(),
            arm_as_store: cfg.rt.perfect_hw,
        };
        let decoded = if cfg.tier == ExecTier::Reference {
            None
        } else {
            Some(DecodedProgram::new(&program, decode_opts))
        };
        let traces =
            (cfg.tier == ExecTier::Trace).then(|| Box::new(TraceCache::new(program.len())));
        let fault = cfg.fault.map(FaultHandle::new);
        let fault_flip = fault
            .as_ref()
            .is_some_and(|f| f.kind() == FaultKind::TokenByteFlip);
        let mut backend = cfg.rt.build_backend(cfg.token_seed);
        if fault_flip {
            // Observe every architectural arm (including the allocator's
            // redzone arms, which never pass through `Inst::Arm`).
            if let Some(armed) = backend.armed_set_mut() {
                armed.set_recording(true);
            }
        }
        let tagged_ptrs = backend.tags_pointers();
        let sites = cfg.profile_guest.then(|| Box::new(SiteTable::new()));
        let pc_checks = cfg
            .profile_guest
            .then(|| Box::new(CheckCounters::new(&program)));
        let access_checks = cfg.rt.scheme == Scheme::Asan && cfg.rt.access_checks;
        // The elision table only matters when the run checks accesses at
        // all; a plain/baseline run has no checks to skip, and building
        // the table there would only invite misattribution.
        let elide = cfg
            .elision
            .as_ref()
            .filter(|_| cfg.rt.checks_in_backend() || access_checks)
            .map(|map| {
                let mut table = vec![false; program.len()].into_boxed_slice();
                for (pc, _) in map.iter() {
                    let idx = pc.wrapping_sub(Program::CODE_BASE) / PC_STEP;
                    if let Some(slot) = table.get_mut(idx as usize) {
                        *slot = true;
                    }
                }
                table
            });
        Emulator {
            program,
            regs: [0; Reg::COUNT],
            pc: entry,
            mem,
            backend,
            token,
            runtime: Runtime::new(cfg.rt.clone()),
            rec: TrafficRecorder::new(),
            decoded,
            decode_opts,
            traces,
            stop: None,
            stop_taken: false,
            insts: 0,
            uops: 0,
            cap: if cfg.max_cycles > 0 {
                cfg.max_uops.min(cfg.max_cycles)
            } else {
                cfg.max_uops
            },
            max_uops: cfg.max_uops,
            max_cycles: cfg.max_cycles,
            fault,
            fault_flip,
            access_checks,
            check_backend: cfg.rt.checks_in_backend(),
            tagged_ptrs,
            perfect_hw: cfg.rt.perfect_hw,
            naive_wide_arm: cfg.rt.naive_wide_arm,
            mode: cfg.rt.mode,
            sites,
            pc_checks,
            elide,
            elided_checks: 0,
        }
    }

    /// The system token.
    pub fn token(&self) -> &Token {
        &self.token
    }

    /// The architectural armed-location set (REST backends only).
    pub fn armed(&self) -> Option<&ArmedSet> {
        self.backend.armed_set()
    }

    /// The active protection backend.
    pub fn backend(&self) -> &dyn ProtectionBackend {
        self.backend.as_ref()
    }

    /// Drains the backend's deferred fault (MTE async/asymm semantics:
    /// the first mismatch is latched TFSR-style and surfaced when the
    /// program stops, not at the faulting access).
    pub fn take_deferred(&mut self) -> Option<Violation> {
        self.backend.take_deferred().map(Violation::from)
    }

    /// The guest runtime (for allocator stats and program output).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Drains the per-allocation-site attribution table (profiling runs
    /// only; `None` otherwise or after taking).
    pub fn take_sites(&mut self) -> Option<SiteTable> {
        self.sites.take().map(|b| *b)
    }

    /// Drains the per-PC check counters (profiling runs only; `None`
    /// otherwise or after taking).
    pub fn take_pc_checks(&mut self) -> Option<CheckCounters> {
        self.pc_checks.take().map(|b| *b)
    }

    /// Software component owning `pc` (audit-log provenance).
    pub fn component_at(&self, pc: u64) -> Component {
        self.program.component_at(pc)
    }

    /// The shared fault-injection handle, if a fault is configured.
    pub fn fault_handle(&self) -> Option<&FaultHandle> {
        self.fault.as_ref()
    }

    /// Forces the run to stop with `reason` unless it already stopped
    /// (used by the timing loop's cycle watchdog; the architectural stop
    /// reason, if any — including one already taken — wins).
    pub fn force_stop(&mut self, reason: StopReason) {
        if self.stop.is_none() && !self.stop_taken {
            self.set_stop(reason);
        }
    }

    /// Applies deferred fault effects queued by the memory hierarchy
    /// (e.g. eviction-time metadata loss): the affected slots leave the
    /// architectural armed set and their stored tokens decay to zero.
    pub fn apply_fault_effects(&mut self) {
        let Some(f) = self.fault.clone() else { return };
        for eff in f.take_effects() {
            match eff {
                MemEffect::DropTokens {
                    line,
                    mask,
                    slot_bytes,
                } => {
                    for i in 0..8u64 {
                        if mask & (1 << i) != 0 {
                            let slot = line + i * slot_bytes;
                            let forgotten = self
                                .backend
                                .armed_set_mut()
                                .is_some_and(|armed| armed.forget(slot));
                            if forgotten {
                                self.mem.fill(slot, slot_bytes, 0);
                                self.invalidate_decoded(slot, slot_bytes);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Decoded-uop cache statistics: `(invalidations, entries re-decoded)`.
    /// Zeroes on the reference path, which has no cache.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        match &self.decoded {
            Some(c) => (c.invalidations(), c.redecoded()),
            None => (0, 0),
        }
    }

    /// Superblock trace statistics: `(traces compiled, traces
    /// invalidated)`. Zeroes off the trace tier.
    pub fn trace_stats(&self) -> (u64, u64) {
        match &self.traces {
            Some(t) => t.stats(),
            None => (0, 0),
        }
    }

    /// Macro instructions retired inside trace dispatch (coverage
    /// telemetry; zero off the trace tier).
    pub fn traced_insts(&self) -> u64 {
        self.traces.as_ref().map_or(0, |t| t.traced_insts())
    }

    /// The runtime traffic recorder's synthetic-PC cursor. The lockstep
    /// differentials assert it advances identically across execution
    /// tiers and sinks (counting mode advances it exactly like
    /// materialising mode).
    pub fn rt_pc_cursor(&self) -> u64 {
        self.rec.pc_cursor()
    }

    /// Current architectural value of `r` (for tests and debuggers).
    pub fn reg_value(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    // `Reg` indices are below `Reg::COUNT` by construction; the mask
    // only tells the compiler so, dropping a bounds check per operand.
    #[inline(always)]
    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() & (Reg::COUNT - 1)]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() & (Reg::COUNT - 1)] = v;
        }
    }

    /// Validates an application access under the active scheme. Returns
    /// the violation to report, if any. `ptr` is the address exactly as
    /// the program computed it (it may carry a tag or PAC in its high
    /// bits); `addr` is its canonical form. `injected` is how many check
    /// micro-ops were emitted for this access (charged to the access PC
    /// and the owning allocation site when profiling is on).
    fn check_app_access(
        &mut self,
        ptr: u64,
        addr: u64,
        size: u64,
        store: bool,
        pc: u64,
        injected: u64,
    ) -> Option<Violation> {
        if self.check_backend {
            // Fail-closed faults: a spuriously-armed slot (flipped
            // metadata bit or glitched LSQ check) raises an exception on
            // a perfectly legal access. REST-only: the fault model
            // targets the token machinery.
            if let Some(f) = &self.fault {
                if self.backend.uses_line_fill_detection() {
                    if let Some(slot) = f.spurious_check(addr, size) {
                        let kind = if store {
                            RestExceptionKind::TokenStore
                        } else {
                            RestExceptionKind::TokenLoad
                        };
                        return Some(Violation::Rest(RestException::new(
                            kind,
                            slot,
                            pc,
                            self.mode.precise_exceptions(),
                        )));
                    }
                }
            }
            if let Some(prof) = self.pc_checks.as_deref_mut() {
                prof.note(pc, injected);
            }
            // `had_deferred` feeds only the site profiler, so skip the
            // backend query on unprofiled runs (the common case).
            let had_deferred = self.sites.is_some() && self.backend.has_deferred();
            let fault = self.backend.check_access(ptr, size, store, pc);
            if let Some(s) = self.sites.as_deref_mut() {
                s.note_check(addr, injected, self.tagged_ptrs);
                if fault.is_some() {
                    s.note_fault(addr);
                } else if !had_deferred && self.backend.has_deferred() {
                    s.note_deferred(addr);
                }
            }
            if let Some(fault) = fault {
                // Fail-open faults: the slot's detection is lost (cleared
                // metadata bit or stuck exception delivery).
                let lost = matches!(&fault, BackendFault::Token(e)
                    if self.fault.as_ref().is_some_and(|f| f.suppress_detection(e.addr)));
                if !lost {
                    return Some(fault.into());
                }
            }
        }
        if self.access_checks {
            if let Some(prof) = self.pc_checks.as_deref_mut() {
                prof.note(pc, injected);
            }
            let classified = shadow::classify_access(&self.mem, addr, size);
            if let Some(s) = self.sites.as_deref_mut() {
                s.note_check(addr, injected, false);
                if classified.is_err() {
                    s.note_fault(addr);
                }
            }
            if let Err(kind) = classified {
                return Some(Violation::Asan(AsanReport {
                    kind,
                    addr,
                    size,
                    pc,
                }));
            }
        }
        None
    }

    /// True when the static elision map proves the check at `pc` cannot
    /// fire. Only application accesses are ever elided — runtime and
    /// instrumentation components never carry injected checks anyway.
    #[inline]
    fn check_elided(&self, pc: u64, component: Component) -> bool {
        if component != Component::App {
            return false;
        }
        match &self.elide {
            Some(t) => {
                let idx = pc.wrapping_sub(Program::CODE_BASE) / PC_STEP;
                t.get(idx as usize).copied().unwrap_or(false)
            }
            None => false,
        }
    }

    /// Records a check skipped via the static elision map, attributing
    /// it to the owning allocation site when profiling is on.
    fn note_elided(&mut self, addr: u64) {
        self.elided_checks += 1;
        if let Some(s) = self.sites.as_deref_mut() {
            s.note_elided(addr);
        }
    }

    /// Checks skipped so far via the static elision map.
    pub fn elided_checks(&self) -> u64 {
        self.elided_checks
    }

    /// Emits the micro-ops of the ASan per-access check (component 3 of
    /// Figure 3), matching the sequence LLVM's pass emits before every
    /// instrumented access: shadow-address arithmetic (shift + add), the
    /// shadow-byte load, the test, and the (never-taken) branch to the
    /// report stub.
    fn emit_asan_check<S: UopSink>(&self, out: &mut S, pc: u64, addr: u64) {
        let check = |d: DynInst| d.with_component(Component::AccessCheck);
        out.push_with(|| check(DynInst::alu(pc, Some(Reg::TP), [None, None])));
        out.push_with(|| check(DynInst::alu(pc, Some(Reg::TP), [Some(Reg::TP), None])));
        out.push_with(|| {
            let sh = rest_runtime::shadow_addr(addr);
            check(DynInst::load(pc, Some(Reg::TP), Some(Reg::TP), sh, 1))
        });
        out.push_with(|| check(DynInst::alu(pc, Some(Reg::TP), [Some(Reg::TP), None])));
        out.push_with(|| {
            check(DynInst::branch(
                pc,
                [Some(Reg::TP), None],
                None,
                BranchInfo {
                    taken: false,
                    target: pc + PC_STEP,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                },
            ))
        });
    }

    /// Emits the micro-ops of the backend's per-access check, if the
    /// active backend charges any (MTE synchronous tag fetch, PA
    /// pointer authentication). REST charges zero — its check rides the
    /// cache fill — so this never perturbs the REST uop stream.
    fn emit_backend_check<S: UopSink>(&self, out: &mut S, pc: u64, addr: u64, store: bool) {
        for _ in 0..self.backend.check_uops(store) {
            out.push_with(|| {
                let d = match self.backend.check_uop_kind() {
                    // Tag fetch from the packed tag shadow (one byte
                    // covers two granules; modelled as a 1-byte load).
                    CheckUopKind::TagLoad => {
                        DynInst::load(pc, Some(Reg::TP), None, rest_runtime::tag_addr(addr), 1)
                    }
                    // PACIA/AUTIA-style recompute-and-compare: ALU work,
                    // no memory traffic.
                    CheckUopKind::AuthAlu => DynInst::alu(pc, Some(Reg::TP), [None, None]),
                };
                d.with_component(Component::AccessCheck)
            });
        }
    }

    /// Invalidates decoded entries — and any superblock traces spanning
    /// them — covered by an ARM/DISARM-visible guest write to the
    /// half-open range `[addr, addr + len)`. This is the single choke
    /// point every self-modification path funnels through (ARM/DISARM
    /// execution, perfect-HW disarms, fault-injected token decay), so
    /// stale fused checks can never execute: a trace dies the moment any
    /// byte of its span is rewritten, before the next dispatch.
    fn invalidate_decoded(&mut self, addr: u64, len: u64) {
        if let Some(cache) = self.decoded.as_mut() {
            cache.invalidate_range(&self.program, addr, len);
        }
        if let Some(traces) = self.traces.as_mut() {
            traces.invalidate_range(addr, len);
        }
    }

    /// Records why execution stopped and folds the stop into the uop
    /// cap, so the next step takes [`Emulator::stop_at_cap`].
    fn set_stop(&mut self, reason: StopReason) {
        self.stop = Some(reason);
        self.cap = 0;
    }

    /// The step's slow path, taken once `uops` reaches the cap: a
    /// recorded or taken stop (cap 0) stays stopped; otherwise one of
    /// the budgets ran out, the micro-op budget winning a tie. `uops`
    /// also bounds the functional side of the cycle watchdog: one
    /// retired micro-op costs at least a fraction of a cycle, so it
    /// bounds how long a hung guest can spin. The timing loop
    /// additionally enforces the budget against real pipeline cycles.
    #[cold]
    fn stop_at_cap(&mut self) {
        if self.stop.is_none() && !self.stop_taken {
            let reason = if self.uops >= self.max_uops {
                StopReason::UopLimit
            } else {
                StopReason::CycleLimit
            };
            self.set_stop(reason);
        }
    }

    /// The micro-op template of `op` at `pc`: the template table's
    /// entry, or — on the Reference tier, which has no table — `op`
    /// lowered afresh.
    #[inline]
    fn template(&self, pc: u64, op: Op) -> DynInst {
        match self.decoded.as_ref().and_then(|t| t.template_at(pc)) {
            Some(t) => *t,
            None => op.template(pc, self.program.component_at(pc), self.decode_opts),
        }
    }

    /// Emits `op`'s template unpatched.
    #[inline(always)]
    fn emit<S: UopSink>(&self, out: &mut S, pc: u64, op: Op) {
        out.push_with(|| self.template(pc, op));
    }

    /// Register-form ALU op: `dst = a <alu> b`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn rr<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        alu: AluOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    ) {
        let v = alu.apply(self.reg(a), self.reg(b));
        self.set_reg(dst, v);
        self.emit(out, pc, op);
    }

    /// Immediate-form ALU op: `dst = a <alu> imm`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn ri<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        alu: AluOp,
        dst: Reg,
        a: Reg,
        imm: i64,
    ) {
        let v = alu.apply(self.reg(a), imm as u64);
        self.set_reg(dst, v);
        self.emit(out, pc, op);
    }

    /// Conditional branch; returns the next PC.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn branch<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        cond: BranchCond,
        a: Reg,
        b: Reg,
        target: u64,
    ) -> u64 {
        let taken = cond.eval(self.reg(a), self.reg(b));
        let next_pc = if taken { target } else { pc + PC_STEP };
        out.push_with(|| with_branch_outcome(self.template(pc, op), taken, next_pc));
        next_pc
    }

    /// The checked half of a load or store at `base + offset`: emits the
    /// injected check micro-ops and the access's own patched template,
    /// then validates the access. Returns the canonical address, or
    /// `None` once a violation has been recorded as the stop.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn checked_access<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        base: Reg,
        offset: i64,
        component: Component,
        size: MemSize,
        store: bool,
    ) -> Option<u64> {
        let ptr = self.reg(base).wrapping_add(offset as u64);
        let addr = if self.tagged_ptrs {
            self.backend.canonical_addr(ptr)
        } else {
            ptr
        };
        let elided = self.check_elided(pc, component);
        let check_start = out.count();
        if !elided && component == Component::App {
            if self.access_checks {
                self.emit_asan_check(out, pc, addr);
            }
            if self.tagged_ptrs {
                self.emit_backend_check(out, pc, addr, store);
            }
        }
        let injected = out.count() - check_start;
        out.push_with(|| with_mem_addr(self.template(pc, op), addr));
        let violation = if elided {
            self.note_elided(addr);
            None
        } else {
            self.check_app_access(ptr, addr, size.bytes(), store, pc, injected)
        };
        match violation {
            Some(v) => {
                self.set_stop(StopReason::Violation(v));
                None
            }
            None => Some(addr),
        }
    }

    /// A load of `size` bytes into `dst`, sign-extended when `signed`.
    #[inline(always)]
    fn load<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        (dst, base, component, offset): (Reg, Reg, Component, i64),
        size: MemSize,
        signed: bool,
    ) {
        if let Some(addr) = self.checked_access(out, pc, op, base, offset, component, size, false) {
            let raw = self.mem.read_scalar(addr, size);
            let v = if signed {
                sign_extend(raw, size.bytes())
            } else {
                raw
            };
            self.set_reg(dst, v);
        }
    }

    /// A store of the low `size` bytes of `src`.
    #[inline(always)]
    fn store<S: UopSink>(
        &mut self,
        out: &mut S,
        pc: u64,
        op: Op,
        (src, base, component, offset): (Reg, Reg, Component, i64),
        size: MemSize,
    ) {
        if let Some(addr) = self.checked_access(out, pc, op, base, offset, component, size, true) {
            self.mem.write_scalar(addr, self.reg(src), size);
        }
    }

    /// Steps, appending each instruction's micro-ops to `out`, and hands
    /// each replay window to `replay`: the instructions run since the
    /// last hand-off, whose micro-ops are `out`'s tail. Returns once the
    /// program stops (after handing over the last window) or `replay`
    /// returns `false`.
    ///
    /// A window ends before an instruction that may write guest memory,
    /// right after one that may record line pre-images, once it holds
    /// [`WINDOW_UOPS`] micro-ops, and
    /// after the instruction that takes `insts` to a multiple of
    /// `every` (1 = one instruction per window, 0 = no such bound). So
    /// guest memory does not change between an instruction and the
    /// replay of its window except by that instruction's own writes, and
    /// the only pre-images recorded are the window's one instruction's:
    /// the timing model reads the bytes it would read replaying each
    /// instruction on its own (DESIGN.md, "Timing loop").
    ///
    /// This loop holds the one copy of the step that materialises
    /// micro-ops: the timing loop in [`crate::System::run`] passes the
    /// pipeline replay as `replay`, and [`ExecEngine::step`] and
    /// [`ExecEngine::run_chunk`] run it with one-instruction windows and
    /// a `replay` that stops at their instruction count.
    #[inline(never)]
    pub(crate) fn run_steps(
        &mut self,
        out: &mut Vec<DynInst>,
        every: u64,
        replay: &mut dyn FnMut(&mut Emulator, &mut Vec<DynInst>, &Window) -> bool,
    ) {
        let mut w = Window {
            pc: self.pc,
            len: 0,
            ends: [0; WINDOW_UOPS],
        };
        let mut start = out.len();
        let mut boundary = match every {
            0 => u64::MAX,
            1 => self.insts + 1,
            n => (self.insts / n + 1).saturating_mul(n),
        };
        while let Some(op) = self.fetch() {
            let write = op.guest_write();
            if write != GuestWrite::Nothing && w.len > 0 {
                // The window's fills must not see this instruction's
                // writes: replay it first.
                if !replay(self, out, &w) {
                    return;
                }
                w.len = 0;
                start = out.len();
            }
            if w.len == 0 {
                w.pc = self.pc;
            }
            self.execute(out, op);
            let end = out.len() - start;
            w.ends[w.len] = end as u32;
            w.len += 1;
            if write == GuestWrite::PreImages || end >= WINDOW_UOPS || self.insts == boundary {
                if self.insts == boundary {
                    boundary = boundary.saturating_add(every);
                }
                if !replay(self, out, &w) {
                    return;
                }
                w.len = 0;
                start = out.len();
            }
        }
        if w.len > 0 {
            replay(self, out, &w);
        }
    }

    /// The step: [`Emulator::fetch`], then [`Emulator::execute`].
    ///
    /// Each sink type has one copy of it that every step of that type
    /// runs: the counting sink's `UopSink::step`, which
    /// [`ExecEngine::run_functional`] also inlines into its loop so the
    /// counting loop pays the step's prologue once per run, and, for
    /// materialised micro-ops, [`Emulator::run_steps`], the timing loop,
    /// which classifies the fetched op between the two halves.
    #[inline(always)]
    fn step_inline<S: UopSink>(&mut self, out: &mut S) -> bool {
        match self.fetch() {
            Some(op) => {
                self.execute(out, op);
                true
            }
            None => false,
        }
    }

    /// The step's first half: one compare against the uop cap and a
    /// fetch of the 16-byte [`Op`] at the PC (from the op table, or
    /// decoded afresh on the Reference tier). `None` once the engine is
    /// stopped, recording a fault for a PC outside the code.
    #[inline(always)]
    fn fetch(&mut self) -> Option<Op> {
        // A recorded or taken stop sets the cap to 0, and otherwise it is
        // the smaller budget, so this one compare covers all four.
        if self.uops >= self.cap {
            self.stop_at_cap();
            return None;
        }
        let pc = self.pc;
        let fetched = match &self.decoded {
            Some(table) => table.op_at(pc),
            None => Op::decode_at(&self.program, pc),
        };
        if fetched.is_none() {
            self.set_stop(StopReason::Fault(format!("bad pc {pc:#x}")));
        }
        fetched
    }

    /// The step's second half: one `match` on `op`, fetched at the PC,
    /// that applies its architectural effect and emits its micro-ops.
    /// Counting sinks never read the template table.
    #[inline(always)]
    fn execute<S: UopSink>(&mut self, out: &mut S, op: Op) {
        let pc = self.pc;
        let before = out.count();
        let mut next_pc = pc + PC_STEP;

        match op {
            Op::Add { dst, a, b } => self.rr(out, pc, op, AluOp::Add, dst, a, b),
            Op::Sub { dst, a, b } => self.rr(out, pc, op, AluOp::Sub, dst, a, b),
            Op::Mul { dst, a, b } => self.rr(out, pc, op, AluOp::Mul, dst, a, b),
            Op::Div { dst, a, b } => self.rr(out, pc, op, AluOp::Div, dst, a, b),
            Op::Rem { dst, a, b } => self.rr(out, pc, op, AluOp::Rem, dst, a, b),
            Op::And { dst, a, b } => self.rr(out, pc, op, AluOp::And, dst, a, b),
            Op::Or { dst, a, b } => self.rr(out, pc, op, AluOp::Or, dst, a, b),
            Op::Xor { dst, a, b } => self.rr(out, pc, op, AluOp::Xor, dst, a, b),
            Op::Sll { dst, a, b } => self.rr(out, pc, op, AluOp::Sll, dst, a, b),
            Op::Srl { dst, a, b } => self.rr(out, pc, op, AluOp::Srl, dst, a, b),
            Op::Sra { dst, a, b } => self.rr(out, pc, op, AluOp::Sra, dst, a, b),
            Op::Slt { dst, a, b } => self.rr(out, pc, op, AluOp::Slt, dst, a, b),
            Op::Sltu { dst, a, b } => self.rr(out, pc, op, AluOp::Sltu, dst, a, b),
            Op::AddI { dst, a, imm } => self.ri(out, pc, op, AluOp::Add, dst, a, imm),
            Op::SubI { dst, a, imm } => self.ri(out, pc, op, AluOp::Sub, dst, a, imm),
            Op::MulI { dst, a, imm } => self.ri(out, pc, op, AluOp::Mul, dst, a, imm),
            Op::DivI { dst, a, imm } => self.ri(out, pc, op, AluOp::Div, dst, a, imm),
            Op::RemI { dst, a, imm } => self.ri(out, pc, op, AluOp::Rem, dst, a, imm),
            Op::AndI { dst, a, imm } => self.ri(out, pc, op, AluOp::And, dst, a, imm),
            Op::OrI { dst, a, imm } => self.ri(out, pc, op, AluOp::Or, dst, a, imm),
            Op::XorI { dst, a, imm } => self.ri(out, pc, op, AluOp::Xor, dst, a, imm),
            Op::SllI { dst, a, imm } => self.ri(out, pc, op, AluOp::Sll, dst, a, imm),
            Op::SrlI { dst, a, imm } => self.ri(out, pc, op, AluOp::Srl, dst, a, imm),
            Op::SraI { dst, a, imm } => self.ri(out, pc, op, AluOp::Sra, dst, a, imm),
            Op::SltI { dst, a, imm } => self.ri(out, pc, op, AluOp::Slt, dst, a, imm),
            Op::SltuI { dst, a, imm } => self.ri(out, pc, op, AluOp::Sltu, dst, a, imm),
            Op::Li { dst, imm } => {
                self.set_reg(dst, imm as u64);
                self.emit(out, pc, op);
            }
            Op::Nop => self.emit(out, pc, op),
            Op::LoadU8 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B1,
                false,
            ),
            Op::LoadS8 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B1,
                true,
            ),
            Op::LoadU16 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B2,
                false,
            ),
            Op::LoadS16 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B2,
                true,
            ),
            Op::LoadU32 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B4,
                false,
            ),
            Op::LoadS32 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B4,
                true,
            ),
            Op::Load64 {
                dst,
                base,
                component,
                offset,
            } => self.load(
                out,
                pc,
                op,
                (dst, base, component, offset),
                MemSize::B8,
                false,
            ),
            Op::Store8 {
                src,
                base,
                component,
                offset,
            } => self.store(out, pc, op, (src, base, component, offset), MemSize::B1),
            Op::Store16 {
                src,
                base,
                component,
                offset,
            } => self.store(out, pc, op, (src, base, component, offset), MemSize::B2),
            Op::Store32 {
                src,
                base,
                component,
                offset,
            } => self.store(out, pc, op, (src, base, component, offset), MemSize::B4),
            Op::Store64 {
                src,
                base,
                component,
                offset,
            } => self.store(out, pc, op, (src, base, component, offset), MemSize::B8),
            Op::Beq { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Eq, a, b, target);
            }
            Op::Bne { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Ne, a, b, target);
            }
            Op::Blt { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Lt, a, b, target);
            }
            Op::Bge { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Ge, a, b, target);
            }
            Op::Bltu { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Ltu, a, b, target);
            }
            Op::Bgeu { a, b, target } => {
                next_pc = self.branch(out, pc, op, BranchCond::Geu, a, b, target);
            }
            Op::Jal { dst, target } => {
                self.set_reg(dst, pc + PC_STEP);
                next_pc = target;
                self.emit(out, pc, op);
            }
            Op::Jalr { dst, base, offset } => {
                // Read `base` before writing `dst`: they may be the same
                // register.
                let t = self.reg(base).wrapping_add(offset as u64);
                self.set_reg(dst, pc + PC_STEP);
                next_pc = t;
                out.push_with(|| with_branch_outcome(self.template(pc, op), true, t));
            }
            Op::Arm { addr } => self.arm(out, pc, op, addr),
            Op::Disarm { addr } => self.disarm(out, pc, op, addr),
            Op::Ecall => self.ecall(out, pc, op),
            Op::Halt => {
                self.set_stop(StopReason::Halted);
                self.emit(out, pc, op);
            }
        }

        if self.fault_flip {
            self.process_arm_faults();
        }
        self.pc = next_pc;
        self.insts += 1;
        self.uops += out.count() - before;
    }

    /// `arm`: the memory uop, then — unless perfect hardware turns it
    /// into a plain store — the architectural token write.
    fn arm<S: UopSink>(&mut self, out: &mut S, pc: u64, op: Op, addr: Reg) {
        let a = self.reg(addr);
        out.push_with(|| with_mem_addr(self.template(pc, op), a));
        if self.perfect_hw {
            return;
        }
        let w = self.token.width().bytes();
        // A backend without an armed set (MTE/PA) has no token
        // machinery: the instruction degrades to the already-pushed
        // memory uop with no architectural token effect.
        match self.backend.armed_set_mut().map(|armed| armed.arm(a)) {
            Some(Ok(())) => {
                for line in (a & !63..a + w).step_by(64) {
                    self.mem.snapshot_line_pre_image(line);
                }
                self.mem.write_bytes(a, self.token.bytes());
                self.invalidate_decoded(a, w);
            }
            Some(Err(kind)) => {
                self.set_stop(StopReason::Violation(Violation::Rest(RestException::new(
                    kind, a, pc, true,
                ))));
            }
            None => {}
        }
    }

    /// `disarm`: the memory uop, then the token clear (a plain zeroing
    /// store under perfect hardware).
    fn disarm<S: UopSink>(&mut self, out: &mut S, pc: u64, op: Op, addr: Reg) {
        let a = self.reg(addr);
        out.push_with(|| with_mem_addr(self.template(pc, op), a));
        let w = self.token.width().bytes();
        if self.perfect_hw {
            let base = a & !(w - 1);
            self.mem.fill(base, w, 0);
            self.invalidate_decoded(base, w);
            return;
        }
        match self.backend.armed_set_mut().map(|armed| armed.disarm(a)) {
            Some(Ok(())) => {
                for line in (a & !63..a + w).step_by(64) {
                    self.mem.snapshot_line_pre_image(line);
                }
                self.mem.fill(a, w, 0);
                self.invalidate_decoded(a, w);
            }
            Some(Err(kind)) => {
                let precise = kind.always_precise() || self.mode.precise_exceptions();
                self.set_stop(StopReason::Violation(Violation::Rest(RestException::new(
                    kind, a, pc, precise,
                ))));
            }
            None => {}
        }
    }

    /// `ecall`: the call's own uop, then the runtime service with its
    /// recorded traffic spliced in behind it.
    fn ecall<S: UopSink>(&mut self, out: &mut S, pc: u64, op: Op) {
        self.emit(out, pc, op);
        let num = self.reg(Reg::A7);
        let args = [
            self.reg(Reg::A0),
            self.reg(Reg::A1),
            self.reg(Reg::A2),
            self.reg(Reg::A3),
            self.reg(Reg::A4),
            self.reg(Reg::A5),
        ];
        let Some(n) = EcallNum::from_u64(num) else {
            self.set_stop(StopReason::Fault(format!("unknown ecall {num}")));
            return;
        };
        // The runtime mutates the machine through disjoint field borrows
        // (no allocator swap); its recorded traffic — materialised or
        // merely counted, matching the sink — is spliced into the stream
        // afterwards.
        self.rec.set_materialize(S::MATERIALIZE);
        let Emulator {
            runtime,
            mem,
            rec,
            backend,
            token,
            check_backend,
            perfect_hw,
            naive_wide_arm,
            sites,
            ..
        } = self;
        let mut env = RtEnv {
            mem,
            rec,
            backend: backend.as_mut(),
            token,
            check_backend: *check_backend,
            check_shadow: false,
            perfect_hw: *perfect_hw,
            naive_wide_arm: *naive_wide_arm,
            guest_pc: pc,
            sites: sites.as_deref_mut(),
        };
        let outcome = runtime.ecall(n, args, &mut env);
        out.splice(&mut self.rec);
        match outcome {
            EcallOutcome::Done(v) => self.set_reg(Reg::A0, v),
            EcallOutcome::Exit(code) => self.set_stop(StopReason::Exit(code)),
            EcallOutcome::Violation(v) => self.set_stop(StopReason::Violation(v)),
        }
    }

    /// Drains arms recorded this step and, on the trigger arm, flips one
    /// bit of the stored token in guest memory. The slot leaves the
    /// armed set (`forget`, not an architectural disarm): the resident
    /// value no longer matches the token, so the content-based detector
    /// can never fire on it again — the canonical missed-detection case.
    fn process_arm_faults(&mut self) {
        let Some(f) = self.fault.clone() else { return };
        let w = self.token.width().bytes();
        let recent = match self.backend.armed_set_mut() {
            Some(armed) => armed.take_recent_arms(),
            None => return,
        };
        for slot in recent {
            if let Some(bit) = f.arm_event(slot, w) {
                let addr = slot + bit / 8;
                let byte = self.mem.read_scalar(addr, rest_isa::MemSize::B1);
                self.mem
                    .write_scalar(addr, byte ^ (1 << (bit % 8)), rest_isa::MemSize::B1);
                if let Some(armed) = self.backend.armed_set_mut() {
                    armed.forget(slot);
                    // Single-shot: stop paying for arm recording.
                    armed.set_recording(false);
                }
                self.invalidate_decoded(addr, 1);
                self.fault_flip = false;
            }
        }
    }

    /// Compiles (or marks dead) the superblock headed at entry `idx`.
    fn compile_trace_at(&mut self, idx: usize) {
        let (Some(decoded), Some(cache)) = (self.decoded.as_ref(), self.traces.as_mut()) else {
            return;
        };
        let cfg = superblock::TraceCompileCfg {
            access_checks: self.access_checks,
            tagged_ptrs: self.tagged_ptrs,
            load_check_uops: u64::from(self.backend.check_uops(false)),
            store_check_uops: u64::from(self.backend.check_uops(true)),
            elide: self.elide.as_deref(),
        };
        match superblock::compile(&self.program, decoded, idx, &cfg) {
            Some(t) => cache.install(idx, t),
            None => cache.mark_dead(idx),
        }
    }

    /// Trace-aware run loop (the trace tier's whole-run dispatcher):
    /// executes compiled superblocks at hot heads and falls back to the
    /// exact per-step path everywhere else. Runs at least `min_insts`
    /// macro instructions (a trace pass may overshoot) or until the
    /// program stops; returns how many were executed.
    ///
    /// Heads heat up on arrival via *any* control transfer (the PC is
    /// not the sequential successor of the previously executed
    /// instruction) — loop headers arrive backward, but function entries
    /// and post-call continuations arrive forward via `jal`/`jalr` and
    /// are every bit as hot in call-heavy code. Sequential arrivals skip
    /// the trace probe entirely, so straight-line fallback execution
    /// pays nothing for the tier. Fault-injection runs pin every step to
    /// the per-step path: the per-step arm-fault hook must see each
    /// instruction.
    fn run_traced<S: UopSink>(&mut self, out: &mut S, min_insts: u64) -> u64 {
        let start = self.insts;
        // PC of the most recently executed instruction (`u64::MAX` =
        // none yet, which makes the first iteration a transfer arrival).
        let mut prev = u64::MAX;
        while self.insts - start < min_insts {
            let pc = self.pc;
            if pc != prev.wrapping_add(PC_STEP) && self.fault.is_none() {
                if let Some(idx) = self.hot_trace_at(pc) {
                    let (ran, last_pc) = self.run_trace(idx, out);
                    if ran > 0 {
                        prev = last_pc;
                        continue;
                    }
                }
            }
            prev = pc;
            if !S::step(self, out) {
                break;
            }
        }
        self.insts - start
    }

    /// The head index at `pc` if a trace is installed there. Otherwise
    /// heats the head, compiling it once it is hot; `None` off the trace
    /// tier and outside the code segment.
    fn hot_trace_at(&mut self, pc: u64) -> Option<usize> {
        let cache = self.traces.as_mut()?;
        let idx = cache.index_of(pc)?;
        if !cache.has(idx) && cache.bump(idx) {
            self.compile_trace_at(idx);
        }
        self.traces.as_ref()?.has(idx).then_some(idx)
    }

    /// Executes the trace installed at head `idx` until a side exit,
    /// violation, budget precondition failure, or (for non-looping
    /// traces) the end of the straight line. Returns `(instructions
    /// executed, PC of the last executed instruction)`; zero executed
    /// means the caller must fall back to the per-step path to make
    /// progress.
    fn run_trace<S: UopSink>(&mut self, idx: usize, out: &mut S) -> (u64, u64) {
        if self.stop.is_some() || self.stop_taken {
            return (0, 0);
        }
        let Some(t) = self.traces.as_mut().and_then(|c| c.checkout(idx)) else {
            return (0, 0);
        };
        let head = t.head;
        let n = t.ops.len();
        let mut insts_run = 0u64;
        let mut local_uops = 0u64;
        let mut last_pc = head;
        'pass: loop {
            // Budget precondition for one full pass: every instruction
            // emits at least one micro-op, so if the whole pass fits
            // under the budget, no per-step budget stop could have fired
            // mid-trace; anything tighter falls back to the exact
            // per-step path (which also handles the cycle watchdog).
            let projected = self.uops + local_uops + t.total_uops;
            if projected > self.max_uops || (self.max_cycles > 0 && projected > self.max_cycles) {
                // `self.pc` still equals `head`: nothing of this pass ran.
                break 'pass;
            }
            let mut i = 0usize;
            'line: while i < n {
                let pc = head + i as u64 * PC_STEP;
                // Every op that starts executing retires (violations
                // included), exactly as in the per-step path.
                insts_run += 1;
                match t.ops[i] {
                    TraceOp::Alu {
                        op,
                        dst,
                        src1,
                        src2,
                    } => {
                        let v = op.apply(self.reg(src1), self.reg(src2));
                        self.set_reg(dst, v);
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| t.templates[i]);
                        }
                    }
                    TraceOp::AluImm { op, dst, src, imm } => {
                        let v = op.apply(self.reg(src), imm as u64);
                        self.set_reg(dst, v);
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| t.templates[i]);
                        }
                    }
                    TraceOp::Li { dst, imm } => {
                        self.set_reg(dst, imm as u64);
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| t.templates[i]);
                        }
                    }
                    TraceOp::Nop => {
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| t.templates[i]);
                        }
                    }
                    TraceOp::Load {
                        dst,
                        base,
                        offset,
                        size,
                        signed,
                        app,
                        elided,
                        injected,
                    } => {
                        let ptr = self.reg(base).wrapping_add(offset as u64);
                        let addr = if self.tagged_ptrs {
                            self.backend.canonical_addr(ptr)
                        } else {
                            ptr
                        };
                        if S::MATERIALIZE && !elided {
                            if self.access_checks && app {
                                self.emit_asan_check(out, pc, addr);
                            }
                            if self.tagged_ptrs && app {
                                self.emit_backend_check(out, pc, addr, false);
                            }
                        }
                        local_uops += injected + 1;
                        if S::MATERIALIZE {
                            out.push_with(|| with_mem_addr(t.templates[i], addr));
                        }
                        let violation = if elided {
                            self.note_elided(addr);
                            None
                        } else {
                            self.check_app_access(ptr, addr, size.bytes(), false, pc, injected)
                        };
                        if let Some(v) = violation {
                            self.set_stop(StopReason::Violation(v));
                            self.pc = pc + PC_STEP;
                            last_pc = pc;
                            break 'pass;
                        }
                        let raw = self.mem.read_scalar(addr, size);
                        let v = if signed {
                            sign_extend(raw, size.bytes())
                        } else {
                            raw
                        };
                        self.set_reg(dst, v);
                    }
                    TraceOp::Store {
                        src,
                        base,
                        offset,
                        size,
                        app,
                        elided,
                        injected,
                    } => {
                        let ptr = self.reg(base).wrapping_add(offset as u64);
                        let addr = if self.tagged_ptrs {
                            self.backend.canonical_addr(ptr)
                        } else {
                            ptr
                        };
                        if S::MATERIALIZE && !elided {
                            if self.access_checks && app {
                                self.emit_asan_check(out, pc, addr);
                            }
                            if self.tagged_ptrs && app {
                                self.emit_backend_check(out, pc, addr, true);
                            }
                        }
                        local_uops += injected + 1;
                        if S::MATERIALIZE {
                            out.push_with(|| with_mem_addr(t.templates[i], addr));
                        }
                        let violation = if elided {
                            self.note_elided(addr);
                            None
                        } else {
                            self.check_app_access(ptr, addr, size.bytes(), true, pc, injected)
                        };
                        if let Some(v) = violation {
                            self.set_stop(StopReason::Violation(v));
                            self.pc = pc + PC_STEP;
                            last_pc = pc;
                            break 'pass;
                        }
                        self.mem.write_scalar(addr, self.reg(src), size);
                    }
                    TraceOp::Branch {
                        cond,
                        src1,
                        src2,
                        target,
                    } => {
                        let taken = cond.eval(self.reg(src1), self.reg(src2));
                        let next_pc = if taken { target } else { pc + PC_STEP };
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| with_branch_outcome(t.templates[i], taken, next_pc));
                        }
                        if taken {
                            last_pc = pc;
                            if target == head {
                                // Loop specialisation: a loop-closing
                                // branch re-enters op 0 after the budget
                                // recheck, without leaving dispatch.
                                continue 'pass;
                            }
                            if target > pc {
                                // Forward target inside the trace:
                                // continue this pass at the target op
                                // (skipping ops only — the pass's uop
                                // total stays below `total_uops`, so
                                // the budget precondition still holds).
                                let off = target - head;
                                let j = (off / PC_STEP) as usize;
                                if off % PC_STEP == 0 && j < n {
                                    i = j;
                                    continue 'line;
                                }
                            }
                            self.pc = target;
                            break 'pass;
                        }
                    }
                    TraceOp::Jal { dst, target } => {
                        self.set_reg(dst, pc + PC_STEP);
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| t.templates[i]);
                        }
                        last_pc = pc;
                        self.pc = target;
                        break 'pass;
                    }
                    TraceOp::Jalr { dst, base, offset } => {
                        // Read `base` before writing `dst` (they may be
                        // the same register), exactly like the per-step path.
                        let target = self.reg(base).wrapping_add(offset as u64);
                        self.set_reg(dst, pc + PC_STEP);
                        local_uops += 1;
                        if S::MATERIALIZE {
                            out.push_with(|| with_branch_outcome(t.templates[i], true, target));
                        }
                        last_pc = pc;
                        self.pc = target;
                        break 'pass;
                    }
                }
                i += 1;
            }
            // Fell off the straight line without a side exit.
            self.pc = head + n as u64 * PC_STEP;
            last_pc = head + (n as u64 - 1) * PC_STEP;
            break 'pass;
        }
        self.insts += insts_run;
        self.uops += local_uops;
        // `t` was checked out of the cache above, so it is still there.
        if let Some(cache) = self.traces.as_mut() {
            cache.count_traced(insts_run);
            cache.restore(idx, t);
        }
        (insts_run, last_pc)
    }
}

impl ExecEngine for Emulator {
    fn step(&mut self, out: &mut Vec<DynInst>) -> bool {
        UopSink::step(self, out)
    }

    fn step_quiet(&mut self) -> bool {
        let mut sink = CountingSink::default();
        UopSink::step(self, &mut sink)
    }

    fn stop_reason(&self) -> Option<&StopReason> {
        self.stop.as_ref()
    }

    fn take_stop(&mut self) -> Option<StopReason> {
        self.stop_taken = true;
        self.cap = 0;
        self.stop.take()
    }

    fn insts(&self) -> u64 {
        self.insts
    }

    fn uops(&self) -> u64 {
        self.uops
    }

    fn pc(&self) -> u64 {
        self.pc
    }

    fn run_functional(&mut self) -> Option<&StopReason> {
        let mut sink = CountingSink::default();
        if self.traces.is_some() {
            self.run_traced(&mut sink, u64::MAX);
        } else {
            while self.step_inline(&mut sink) {}
        }
        self.stop.as_ref()
    }

    fn run_chunk(&mut self, out: &mut Vec<DynInst>, min_insts: u64) -> u64 {
        if self.traces.is_some() {
            self.run_traced(out, min_insts)
        } else {
            let start = self.insts;
            if min_insts > 0 {
                self.run_steps(out, 1, &mut |e, _, _| e.insts - start < min_insts);
            }
            self.insts - start
        }
    }
}

/// Destination for the functional micro-op stream. The timing path
/// materialises [`DynInst`]s into a `Vec`; functional-only runs count
/// them instead, skipping all per-uop heap traffic.
trait UopSink {
    /// Whether runtime services should materialise their recorded
    /// traffic (`false` lets the recorder count instead).
    const MATERIALIZE: bool;
    /// Accepts one micro-op, built by `make` only if the sink
    /// materialises (a counting sink never reads a template).
    fn push_with(&mut self, make: impl FnOnce() -> DynInst);
    /// Micro-ops accepted so far.
    fn count(&self) -> u64;
    /// Splices the runtime recorder's traffic into the stream.
    fn splice(&mut self, rec: &mut TrafficRecorder);
    /// Executes one instruction of `emu` into this sink: the sink
    /// type's one out-of-line copy of the step.
    fn step(emu: &mut Emulator, out: &mut Self) -> bool;
}

impl UopSink for Vec<DynInst> {
    const MATERIALIZE: bool = true;

    #[inline]
    fn push_with(&mut self, make: impl FnOnce() -> DynInst) {
        self.push(make());
    }

    fn count(&self) -> u64 {
        self.len() as u64
    }

    fn splice(&mut self, rec: &mut TrafficRecorder) {
        rec.drain_into(self);
    }

    fn step(emu: &mut Emulator, out: &mut Self) -> bool {
        let mut stepped = false;
        emu.run_steps(out, 1, &mut |_, _, _| {
            stepped = true;
            false
        });
        stepped
    }
}

/// Counts micro-ops without building them (the uop budget still needs
/// the number).
#[derive(Debug, Default)]
struct CountingSink {
    n: u64,
}

impl UopSink for CountingSink {
    const MATERIALIZE: bool = false;

    #[inline]
    fn push_with(&mut self, _make: impl FnOnce() -> DynInst) {
        self.n += 1;
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn splice(&mut self, rec: &mut TrafficRecorder) {
        self.n += rec.take_recorded();
    }

    #[inline(never)]
    fn step(emu: &mut Emulator, out: &mut Self) -> bool {
        emu.step_inline(out)
    }
}

/// Replay-time patch: resolves the template's memory address.
#[inline]
fn with_mem_addr(mut d: DynInst, addr: u64) -> DynInst {
    if let Some(m) = d.mem.as_mut() {
        m.addr = addr;
    }
    d
}

/// Replay-time patch: resolves the template's branch outcome.
#[inline]
fn with_branch_outcome(mut d: DynInst, taken: bool, target: u64) -> DynInst {
    if let Some(b) = d.branch.as_mut() {
        b.taken = taken;
        b.target = target;
    }
    d
}

fn sign_extend(v: u64, bytes: u64) -> u64 {
    let bits = bytes * 8;
    if bits >= 64 {
        return v;
    }
    let shift = 64 - bits;
    (((v << shift) as i64) >> shift) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_isa::{OpKind, ProgramBuilder};
    use rest_runtime::RtConfig;

    #[test]
    fn stop_names_are_pinned() {
        let violation = Violation::Asan(AsanReport {
            kind: rest_runtime::AsanReportKind::BadFree,
            addr: 0,
            size: 0,
            pc: 0,
        });
        for (stop, name) in [
            (StopReason::Exit(0), "exit-0"),
            (StopReason::Exit(3), "exit-3"),
            (StopReason::Exit(-1), "exit--1"),
            (StopReason::Halted, "halted"),
            (StopReason::Violation(violation), "violation"),
            (StopReason::UopLimit, "uop-limit"),
            (StopReason::CycleLimit, "cycle-limit"),
            (StopReason::Fault("bad pc".to_string()), "guest-fault"),
        ] {
            assert_eq!(stop.name(), name, "{stop:?}");
        }
    }

    fn run(program: Program, rt: RtConfig) -> (Emulator, StopReason) {
        let cfg = SimConfig::isca2018(rt);
        let mut emu = Emulator::new(program, &cfg);
        emu.run_functional();
        let stop = emu.take_stop().expect("stopped");
        (emu, stop)
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, 100);
        p.bind(lp);
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.halt();
        let (emu, stop) = run(p.build(), RtConfig::plain());
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(emu.regs[Reg::A0.index()], 5050);
        assert_eq!(emu.insts(), 2 + 3 * 100 + 1);
    }

    #[test]
    fn loads_and_stores_round_trip_with_sign_extension() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 0x30_0000);
        p.li(Reg::T1, -2);
        p.store(Reg::T1, Reg::T0, 0, rest_isa::MemSize::B2);
        p.load_signed(Reg::A0, Reg::T0, 0, rest_isa::MemSize::B2);
        p.load(Reg::A1, Reg::T0, 0, rest_isa::MemSize::B2);
        p.halt();
        let (emu, _) = run(p.build(), RtConfig::plain());
        assert_eq!(emu.regs[Reg::A0.index()], (-2i64) as u64);
        assert_eq!(emu.regs[Reg::A1.index()], 0xfffe);
    }

    #[test]
    fn malloc_ecall_allocates_and_programs_can_use_it() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.li(Reg::T0, 42);
        p.sd(Reg::T0, Reg::S0, 0);
        p.ld(Reg::A0, Reg::S0, 0);
        p.li(Reg::A0, 0);
        p.ecall(EcallNum::Exit);
        let (emu, stop) = run(p.build(), RtConfig::rest(Mode::Secure, false));
        assert_eq!(stop, StopReason::Exit(0));
        assert_eq!(emu.runtime().allocator().stats().allocs, 1);
    }

    #[test]
    fn rest_catches_heap_overflow_in_guest_code() {
        // Allocate 64 bytes, then walk past the end one dword at a time.
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.li(Reg::T0, 0); // index
        p.bind(lp);
        p.add(Reg::T1, Reg::S0, Reg::T0);
        p.ld(Reg::A1, Reg::T1, 0);
        p.addi(Reg::T0, Reg::T0, 8);
        p.li(Reg::T2, 4096);
        p.blt(Reg::T0, Reg::T2, lp);
        p.halt();
        let (_, stop) = run(p.build(), RtConfig::rest(Mode::Secure, false));
        match stop {
            StopReason::Violation(Violation::Rest(e)) => {
                assert_eq!(e.kind, RestExceptionKind::TokenLoad);
                assert!(!e.precise, "secure mode reports imprecisely");
            }
            other => panic!("expected REST violation, got {other:?}"),
        }
    }

    #[test]
    fn asan_catches_the_same_overflow_with_injected_checks() {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.li(Reg::T0, 0);
        p.bind(lp);
        p.add(Reg::T1, Reg::S0, Reg::T0);
        p.ld(Reg::A1, Reg::T1, 0);
        p.addi(Reg::T0, Reg::T0, 8);
        p.li(Reg::T2, 4096);
        p.blt(Reg::T0, Reg::T2, lp);
        p.halt();
        let cfg = SimConfig::isca2018(RtConfig::asan());
        let mut emu = Emulator::new(p.build(), &cfg);
        let mut uops = Vec::new();
        while emu.step(&mut uops) {}
        match emu.stop_reason() {
            Some(StopReason::Violation(Violation::Asan(r))) => {
                assert_eq!(r.kind, rest_runtime::AsanReportKind::HeapRedzone);
            }
            other => panic!("expected ASan violation, got {other:?}"),
        }
        // The injected check uops must be present and attributed.
        assert!(uops.iter().any(|u| u.component == Component::AccessCheck));
    }

    #[test]
    fn plain_build_lets_the_overflow_through() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 64);
        p.ecall(EcallNum::Malloc);
        p.mv(Reg::S0, Reg::A0);
        p.ld(Reg::A1, Reg::S0, 256); // straight past the end
        p.halt();
        let (_, stop) = run(p.build(), RtConfig::plain());
        assert_eq!(stop, StopReason::Halted);
    }

    #[test]
    fn guest_arm_disarm_work_and_misalignment_faults() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 0x30_0040);
        p.arm(Reg::T0);
        p.disarm(Reg::T0);
        p.li(Reg::T0, 0x30_0041); // misaligned
        p.arm(Reg::T0);
        p.halt();
        let (_, stop) = run(p.build(), RtConfig::rest(Mode::Secure, true));
        match stop {
            StopReason::Violation(Violation::Rest(e)) => {
                assert_eq!(e.kind, RestExceptionKind::MisalignedArm);
                assert!(e.precise, "invalid REST instruction exceptions are precise");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disarm_of_unarmed_location_faults() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 0x30_0040);
        p.disarm(Reg::T0);
        p.halt();
        let (_, stop) = run(p.build(), RtConfig::rest(Mode::Secure, true));
        match stop {
            StopReason::Violation(Violation::Rest(e)) => {
                assert_eq!(e.kind, RestExceptionKind::DisarmUnarmed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn allocator_disarm_of_a_guest_disarmed_redzone_stops_with_a_violation() {
        // The guest disarms its chunk's right redzone, frees the chunk,
        // then pushes it out of quarantine: the allocator's release
        // sweep finds that slot unarmed.
        let program = rest_isa::parse_asm(
            "    li a0, 64
    li a7, 1
    ecall
    addi s0, a0, 0
    addi t0, s0, 64
    disarm t0
    addi a0, s0, 0
    li a7, 2
    ecall
    li s1, 4
L_loop:
    li a0, 600000
    li a7, 1
    ecall
    li a7, 2
    ecall
    addi s1, s1, -1
    bne s1, zero, L_loop
    halt
",
        )
        .unwrap();
        for mode in [Mode::Secure, Mode::Debug] {
            let rt = RtConfig::rest(mode, false);
            let (_, functional) = run(program.clone(), rt.clone());
            let timed = crate::System::new(program.clone(), SimConfig::isca2018(rt)).run();
            for stop in [functional, timed.stop] {
                match stop {
                    StopReason::Violation(Violation::Rest(e)) => {
                        assert_eq!(e.kind, RestExceptionKind::DisarmUnarmed);
                        assert_eq!(e.precise, mode == Mode::Debug);
                    }
                    other => panic!("{mode:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn perfect_hw_turns_arms_into_stores_and_disables_detection() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::T0, 0x30_0040);
        p.arm(Reg::T0);
        p.ld(Reg::A0, Reg::T0, 0); // would fault on real REST hardware
        p.halt();
        let cfg = SimConfig::isca2018(RtConfig::rest_perfect(true));
        let mut emu = Emulator::new(p.build(), &cfg);
        let mut uops = Vec::new();
        while emu.step(&mut uops) {}
        assert_eq!(emu.stop_reason(), Some(&StopReason::Halted));
        assert!(uops.iter().all(|u| u.kind != OpKind::Arm));
    }

    #[test]
    fn uop_limit_stops_infinite_loops() {
        let mut p = ProgramBuilder::new();
        let lp = p.label_here();
        p.j(lp);
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.max_uops = 1000;
        let mut emu = Emulator::new(p.build(), &cfg);
        let mut buf = Vec::new();
        while emu.step(&mut buf) {
            buf.clear();
        }
        assert_eq!(emu.stop_reason(), Some(&StopReason::UopLimit));
    }

    #[test]
    fn ecall_traffic_is_spliced_with_allocator_attribution() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 128);
        p.ecall(EcallNum::Malloc);
        p.halt();
        let cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, false));
        let mut emu = Emulator::new(p.build(), &cfg);
        let mut uops = Vec::new();
        while emu.step(&mut uops) {}
        let arms = uops.iter().filter(|u| u.kind == OpKind::Arm).count();
        assert!(arms >= 2, "redzone arms must appear in the stream: {arms}");
        assert!(uops
            .iter()
            .any(|u| u.component == Component::Allocator && u.kind == OpKind::Arm));
    }

    /// Satellite: the `take_stop` contract. Taking the stop reason must
    /// leave the engine permanently stopped — no consumer idiom (step,
    /// step_quiet, run_functional's loop) may resume it, no later stop
    /// may overwrite history, and a second take returns `None`.
    #[test]
    fn take_stop_permanently_stops_the_engine() {
        let mut p = ProgramBuilder::new();
        p.li(Reg::A0, 0);
        p.ecall(EcallNum::Exit);
        p.halt(); // would run if the engine wrongly resumed
        let cfg = SimConfig::isca2018(RtConfig::plain());
        let mut emu = Emulator::new(p.build(), &cfg);
        while emu.step_quiet() {}
        let insts = emu.insts();
        assert_eq!(emu.take_stop(), Some(StopReason::Exit(0)));

        // Taken: the reason is gone and the engine refuses to execute.
        assert_eq!(emu.take_stop(), None, "second take must return None");
        assert_eq!(emu.stop_reason(), None);
        assert!(
            !emu.step_quiet(),
            "step_quiet must not resume a taken engine"
        );
        let mut buf = Vec::new();
        assert!(!emu.step(&mut buf), "step must not resume a taken engine");
        assert!(buf.is_empty(), "a refused step must not emit micro-ops");
        assert_eq!(emu.insts(), insts, "no instruction may retire after take");

        // A forced stop after consumption must not resurrect the engine
        // with a different history either.
        emu.force_stop(StopReason::Halted);
        assert_eq!(emu.stop_reason(), None, "taken engines ignore force_stop");
        // run_functional on a taken engine reports that the reason is
        // gone instead of panicking.
        assert_eq!(emu.run_functional(), None);
        assert_eq!(emu.insts(), insts);
    }

    /// The trace tier's entry points reach their "no trace cache" and
    /// "already stopped" boundaries without panicking: a taken trace-tier
    /// engine neither runs a chunk nor a functional pass, and the fast
    /// tier's `run_chunk` never consults traces.
    #[test]
    fn trace_entry_points_on_stopped_and_trace_less_engines() {
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.tier = ExecTier::Trace;
        let mut traced = Emulator::new(hot_loop_program(100), &cfg);
        assert_eq!(traced.run_functional(), Some(&StopReason::Halted));
        let insts = traced.insts();
        assert_eq!(traced.take_stop(), Some(StopReason::Halted));
        assert_eq!(traced.run_functional(), None);
        let mut buf = Vec::new();
        assert_eq!(traced.run_chunk(&mut buf, 1_000), 0);
        assert!(buf.is_empty());
        assert_eq!(traced.insts(), insts);

        let mut fast = Emulator::new(
            hot_loop_program(100),
            &SimConfig::isca2018(RtConfig::plain()),
        );
        assert_eq!(fast.run_chunk(&mut buf, u64::MAX), insts);
        assert_eq!(fast.trace_stats(), (0, 0));
        assert_eq!(fast.stop_reason(), Some(&StopReason::Halted));
    }

    fn hot_loop_program(iters: i64) -> Program {
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, iters);
        p.bind(lp);
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        p.halt();
        p.build()
    }

    #[test]
    fn trace_tier_compiles_hot_loops_and_matches_the_fast_path() {
        let mut cfg = SimConfig::isca2018(RtConfig::plain());
        cfg.tier = ExecTier::Trace;
        let mut traced = Emulator::new(hot_loop_program(500), &cfg);
        traced.run_functional();
        let (compiled, _) = traced.trace_stats();
        assert!(compiled >= 1, "a 500-iteration loop must compile a trace");

        let fast_cfg = SimConfig::isca2018(RtConfig::plain());
        let mut fast = Emulator::new(hot_loop_program(500), &fast_cfg);
        fast.run_functional();
        assert_eq!(traced.insts(), fast.insts());
        assert_eq!(traced.uops(), fast.uops());
        assert_eq!(traced.pc(), fast.pc());
        assert_eq!(traced.regs[Reg::A0.index()], fast.regs[Reg::A0.index()]);
        assert_eq!(traced.take_stop(), fast.take_stop());
    }

    #[test]
    fn trace_tier_respects_the_uop_budget_exactly() {
        // The budget must stop the trace tier at the same instruction
        // the per-step path stops at, even when the limit lands in the
        // middle of a would-be trace pass.
        for max_uops in [50, 97, 403, 1000] {
            let mut cfg = SimConfig::isca2018(RtConfig::plain());
            cfg.max_uops = max_uops;
            cfg.tier = ExecTier::Trace;
            let mut traced = Emulator::new(hot_loop_program(10_000), &cfg);
            traced.run_functional();

            let mut cfg = SimConfig::isca2018(RtConfig::plain());
            cfg.max_uops = max_uops;
            let mut fast = Emulator::new(hot_loop_program(10_000), &cfg);
            fast.run_functional();

            assert_eq!(traced.insts(), fast.insts(), "budget {max_uops}");
            assert_eq!(traced.uops(), fast.uops(), "budget {max_uops}");
            assert_eq!(traced.take_stop(), fast.take_stop(), "budget {max_uops}");
        }
    }

    #[test]
    fn arm_invalidates_overlapping_traces_before_the_next_dispatch() {
        // A hot loop that, once warmed, ARMs a slot *inside the code
        // segment image of its own body* would execute stale fused
        // checks if invalidation missed. Here we drive the invalidation
        // path directly: run a loop hot, then arm a slot covering its
        // span and observe the trace cache drop it.
        let mut cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, true));
        cfg.tier = ExecTier::Trace;
        let mut p = ProgramBuilder::new();
        let lp = p.new_label();
        p.li(Reg::A0, 0);
        p.li(Reg::T0, 200);
        p.bind(lp);
        p.add(Reg::A0, Reg::A0, Reg::T0);
        p.addi(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, lp);
        // After the loop goes cold: arm + disarm a heap slot. The
        // addresses are data, not code, so the *code-segment clamp*
        // inside invalidate_range must keep the trace alive.
        p.li(Reg::T1, 0x30_0040);
        p.arm(Reg::T1);
        p.disarm(Reg::T1);
        p.halt();
        let mut emu = Emulator::new(p.build(), &cfg);
        emu.run_functional();
        let (compiled, invalidated) = emu.trace_stats();
        assert!(compiled >= 1, "loop must compile");
        assert_eq!(
            invalidated, 0,
            "data-address arms must not kill code traces (clamp to code segment)"
        );
        assert_eq!(emu.take_stop(), Some(StopReason::Halted));

        // Now the direct invalidation check at the cache level: a write
        // over the loop body's span must drop the trace.
        let mut cache = crate::superblock::TraceCache::new(8);
        let program = hot_loop_program(5);
        let decoded = DecodedProgram::new(
            &program,
            DecodeOptions {
                arm_width: 8,
                arm_as_store: false,
            },
        );
        let compile_cfg = superblock::TraceCompileCfg {
            access_checks: false,
            tagged_ptrs: false,
            load_check_uops: 0,
            store_check_uops: 0,
            elide: None,
        };
        let t =
            superblock::compile(&program, &decoded, 2, &compile_cfg).expect("loop body compiles");
        cache.install(2, t);
        assert!(cache.has(2));
        cache.invalidate_range(Program::CODE_BASE + 2 * PC_STEP, 1);
        assert!(!cache.has(2), "overlapping write must invalidate the trace");
    }
}
