use rest_core::{Mode, RestExceptionKind, Token};
use rest_isa::{DynInst, MemAccessKind, MemRef, OpKind, Reg};
use rest_mem::{Hierarchy, LineReader, MemStats};
use rest_obs::{AuditEntry, AuditLog, CpiComponent, Gauges};

use crate::bpred::BranchPredictor;
use crate::config::CoreConfig;
use crate::stats::CoreStats;
use crate::store_window::{last_byte, StoreRec, StoreWindow};
use crate::trace::{PipelineTrace, TraceEntry};

/// A ring scoreboard: one slot per instance of a structural resource
/// (ROB entry, IQ entry, functional unit, ...), claimed round-robin in
/// program order. [`Ring::peek`] is the cycle the next slot frees;
/// [`Ring::push`] claims it until a cycle and advances the cursor.
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[u64]>,
    cursor: usize,
}

impl Ring {
    fn new(len: usize) -> Ring {
        Ring {
            slots: vec![0; len].into_boxed_slice(),
            cursor: 0,
        }
    }

    /// Cycle at which the next slot frees.
    fn peek(&self) -> u64 {
        self.slots[self.cursor]
    }

    /// Claims the next slot until `free_at`.
    fn push(&mut self, free_at: u64) {
        self.slots[self.cursor] = free_at;
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
    }

    /// Slots still busy at `now`.
    fn busy(&self, now: u64) -> u64 {
        self.slots.iter().filter(|&&c| c > now).count() as u64
    }
}

/// One cycle per micro-op for the last micro-ops, indexed by micro-op
/// sequence number: a scoreboard that every micro-op claims one slot
/// of, in program order (dispatch width, commit width, ROB, IQ). A
/// ring of `len` such slots frees its next slot when the micro-op `len`
/// back freed it, so one trail at least as long as its rings stands for
/// all of them without a cursor. Its length is a power of two; entries
/// start at 0, as ring slots do, and an entry is only ever read before
/// the micro-op that overwrites it records itself.
#[derive(Debug, Clone)]
struct Trail {
    slots: Box<[u64]>,
}

impl Trail {
    /// A trail standing for rings of up to `len` slots.
    fn new(len: usize) -> Trail {
        Trail {
            slots: vec![0; len.next_power_of_two()].into_boxed_slice(),
        }
    }

    #[inline(always)]
    fn slot(&self, n: u64) -> usize {
        n as usize & (self.slots.len() - 1)
    }

    /// The cycle micro-op `n - back` recorded (0 before the first): when
    /// a ring of `back` slots frees the slot micro-op `n` claims.
    #[inline(always)]
    fn ago(&self, n: u64, back: usize) -> u64 {
        self.slots[self.slot(n.wrapping_sub(back as u64))]
    }

    /// Records micro-op `n`'s cycle.
    #[inline(always)]
    fn record(&mut self, n: u64, cycle: u64) {
        let i = self.slot(n);
        self.slots[i] = cycle;
    }

    /// Of the last `len` micro-ops before `n`, those whose cycle is after
    /// `now`: the busy slots of a ring of `len`.
    fn busy(&self, n: u64, len: usize, now: u64) -> u64 {
        (1..=len).filter(|&back| self.ago(n, back) > now).count() as u64
    }
}

/// `reg_ready` slot an absent source reads: never written, so it adds
/// no dependency.
const NO_SRC: usize = Reg::COUNT;
/// `reg_ready` slot that absorbs the write of a micro-op without a
/// destination or with the zero register as destination; never read.
const NO_DST: usize = Reg::COUNT + 1;

/// `reg_ready` slot a source operand reads.
#[inline(always)]
fn src_slot(src: Option<Reg>) -> usize {
    // Register indices are below `Reg::COUNT`; the mask lets the
    // compiler see the slot is in bounds.
    src.map_or(NO_SRC, |r| r.index() & (Reg::COUNT - 1))
}

/// `reg_ready` slot a destination operand writes.
#[inline(always)]
fn dst_slot(dst: Option<Reg>) -> usize {
    match dst {
        Some(r) if !r.is_zero() => r.index() & (Reg::COUNT - 1),
        _ => NO_DST,
    }
}

/// The out-of-order timing model.
///
/// Replays the oracle micro-op stream using timestamp algebra: each
/// micro-op's fetch, dispatch, issue, completion, and commit cycles are
/// computed against scoreboards for every structural resource of the
/// Table II core (ROB/IQ/LQ/SQ occupancy, dispatch and commit width,
/// functional units, L1-D ports, branch redirects, I-cache stalls).
/// Younger independent micro-ops may issue before stalled older ones —
/// out-of-order issue — while dispatch and commit remain in order, as in
/// hardware.
///
/// Each structural resource is a ring scoreboard. The four that every
/// micro-op claims in program order (dispatch and commit width, ROB,
/// IQ) are `Trail`s of the last micro-ops' dispatch, issue and commit
/// cycles, indexed by sequence number; the
/// others are `Ring`s with a cursor. The store window
/// keeps the in-flight stores the LSQ searches: at most `sq_entries`,
/// minus those already drained before any later micro-op can issue. A
/// search walks it only when a store touches one of the access's line
/// buckets (see the `store_window` module).
///
/// Memory micro-ops walk the [`Hierarchy`]; the REST interactions
/// (token-bit checks, arm/disarm handling, debug-mode store-commit
/// delay, forwarding exceptions) happen on exactly the paths Table I
/// modifies.
#[derive(Debug)]
pub struct Pipeline {
    cfg: CoreConfig,
    hier: Hierarchy,
    bpred: BranchPredictor,
    mode: Mode,

    // Fetch state.
    next_fetch_cycle: u64,
    fetch_slots_used: usize,
    redirect_at: u64,
    cur_fetch_line: u64,

    // Scoreboards.
    /// Cycle each register's value is ready, plus the [`NO_SRC`] and
    /// [`NO_DST`] slots.
    reg_ready: [u64; Reg::COUNT + 2],
    /// Dispatch cycles: the dispatch-width scoreboard.
    disp_trail: Trail,
    /// Issue cycles: the IQ scoreboard (an entry frees at issue).
    issue_trail: Trail,
    /// Commit cycles: the commit-width and ROB scoreboards.
    commit_trail: Trail,
    lq_ring: Ring,
    sq_ring: Ring,
    alu_ring: Ring,
    mul_ring: Ring,
    port_ring: Ring,
    div_free: u64,
    sq_drain_free: u64,

    /// Micro-ops processed (trace sequence number).
    n: u64,
    last_commit: u64,
    /// Dispatch barrier used by the serialise-rest-ops ablation.
    barrier_at: u64,

    store_window: StoreWindow,
    stats: CoreStats,
    tracer: Option<PipelineTrace>,
    /// Dispatch frontier — "now" for occupancy gauges.
    last_disp: u64,
    /// Count of the macro instruction whose micro-ops are being
    /// replayed (stamps audit entries): set per instruction by
    /// `process_all`, or by the driver via [`Pipeline::note_inst`].
    cur_inst: u64,
    audit: AuditLog,
}

impl Pipeline {
    /// Creates a pipeline over a fresh hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` gives the dispatch or commit width, the ROB or
    /// the IQ no entries.
    pub fn new(cfg: CoreConfig, hier: Hierarchy, mode: Mode) -> Pipeline {
        assert!(
            [
                cfg.issue_width,
                cfg.commit_width,
                cfg.rob_entries,
                cfg.iq_entries
            ]
            .iter()
            .all(|&n| n > 0),
            "widths, ROB and IQ need at least one entry"
        );
        let bpred = BranchPredictor::new(cfg.bpred_history_bits, cfg.btb_entries, cfg.ras_depth);
        Pipeline {
            disp_trail: Trail::new(cfg.issue_width),
            issue_trail: Trail::new(cfg.iq_entries),
            commit_trail: Trail::new(cfg.commit_width.max(cfg.rob_entries)),
            lq_ring: Ring::new(cfg.lq_entries),
            sq_ring: Ring::new(cfg.sq_entries),
            alu_ring: Ring::new(cfg.alu_units),
            mul_ring: Ring::new(cfg.mul_units),
            port_ring: Ring::new(cfg.mem_ports),
            div_free: 0,
            sq_drain_free: 0,
            next_fetch_cycle: 0,
            fetch_slots_used: 0,
            redirect_at: 0,
            cur_fetch_line: u64::MAX,
            reg_ready: [0; Reg::COUNT + 2],
            n: 0,
            last_commit: 0,
            barrier_at: 0,
            store_window: StoreWindow::new(cfg.sq_entries),
            stats: CoreStats::default(),
            tracer: None,
            last_disp: 0,
            cur_inst: 0,
            audit: AuditLog::default(),
            hier,
            bpred,
            mode,
            cfg,
        }
    }

    /// Enables stage-timestamp tracing for the first `uops` micro-ops.
    pub fn enable_trace(&mut self, uops: usize) {
        if uops > 0 {
            self.tracer = Some(PipelineTrace::new(uops));
        }
    }

    /// The recorded pipeline trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<PipelineTrace> {
        self.tracer.take()
    }

    /// Current pipeline statistics (cycles valid after [`Pipeline::finish`]).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Memory-hierarchy statistics.
    pub fn mem_stats(&self) -> &MemStats {
        self.hier.stats()
    }

    /// Commit frontier so far — total cycles if the stream ended here.
    /// Valid mid-run, unlike `stats().cycles` (set by `finish`).
    pub fn current_cycles(&self) -> u64 {
        self.last_commit
    }

    /// Updates the committed macro-instruction count used to stamp
    /// audit entries of micro-ops fed one by one through
    /// [`Pipeline::process`] (call before replaying the instruction's
    /// micro-ops).
    pub fn note_inst(&mut self, insts: u64) {
        self.cur_inst = insts;
    }

    /// Hardware-detected violations recorded so far (cache token-bit
    /// checks and LSQ forwarding rules, with PC/component provenance).
    pub fn take_audit(&mut self) -> AuditLog {
        std::mem::take(&mut self.audit)
    }

    /// Occupancy gauges at the current dispatch frontier. Computed
    /// lazily by scanning the ring scoreboards — zero cost unless
    /// sampling is enabled.
    pub fn gauges(&mut self) -> Gauges {
        let now = self.last_disp;
        let mut g = Gauges {
            rob: self.commit_trail.busy(self.n, self.cfg.rob_entries, now),
            iq: self.issue_trail.busy(self.n, self.cfg.iq_entries, now),
            lq: self.lq_ring.busy(now),
            sq: self.sq_ring.busy(now),
            ..Gauges::default()
        };
        self.hier.fill_gauges(now, &mut g);
        g
    }

    fn record_rest_audit(&mut self, kind: RestExceptionKind, d: &DynInst, addr: u64) {
        self.audit.record(AuditEntry {
            detector: "rest",
            kind: kind.name(),
            pc: d.pc,
            addr,
            size: 0,
            mode: self.mode.name(),
            component: d.component.name(),
            precise: kind.always_precise() || self.mode.precise_exceptions(),
            insts: self.cur_inst,
        });
    }

    /// Processes one micro-op of the oracle stream, stamping any audit
    /// entry with the count last given to [`Pipeline::note_inst`].
    pub fn process(&mut self, d: &DynInst, mem: &dyn LineReader, token: &Token) {
        self.process_all(std::slice::from_ref(d), &[1], self.cur_inst, mem, token);
    }

    /// Processes a replay window of the oracle stream in order: the one
    /// copy of the per-micro-op work, which [`Pipeline::process`] runs
    /// for a single micro-op. Instruction `i` of the window owns
    /// `uops[ends[i - 1]..ends[i]]` (from 0 for the first) and is the
    /// `first_inst + i`-th instruction of the run, the count its audit
    /// entries carry.
    #[inline(never)]
    pub(crate) fn process_all(
        &mut self,
        uops: &[DynInst],
        ends: &[u32],
        first_inst: u64,
        mem: &dyn LineReader,
        token: &Token,
    ) {
        let mut start = 0;
        for (inst, &end) in (first_inst..).zip(ends) {
            self.cur_inst = inst;
            for d in &uops[start..end as usize] {
                self.process_one(d, mem, token);
            }
            start = end as usize;
        }
    }

    /// One micro-op's fetch, dispatch, issue, execution, commit and
    /// CPI-stack attribution.
    #[inline(always)]
    fn process_one(&mut self, d: &DynInst, mem: &dyn LineReader, token: &Token) {
        self.stats.uops += 1;
        self.stats.note_component(d.component);
        // Commit frontier before this micro-op: its commit advances the
        // frontier by a non-negative delta, attributed to the stall
        // causes measured below (CPI-stack construction).
        let prev_commit = self.last_commit;
        let mut fetch_stall = 0u64;
        let mut mem_stall = [0u64; 4]; // l1d-miss, l2-miss, dram, rest-check
        let mut store_drain_stall = 0u64;

        // ---- Fetch ----
        if self.fetch_slots_used >= self.cfg.fetch_width {
            self.next_fetch_cycle += 1;
            self.fetch_slots_used = 0;
        }
        let mut f = self.next_fetch_cycle.max(self.redirect_at);
        let branch_stall = f - self.next_fetch_cycle;
        if f > self.next_fetch_cycle {
            self.fetch_slots_used = 0;
        }
        let line = self.hier.inst_line(d.pc);
        if line != self.cur_fetch_line {
            let ready = self.hier.fetch_inst(f, d.pc, mem, token);
            let hit_time = f + 2;
            if ready > hit_time {
                self.stats.fetch_stall_cycles += ready - hit_time;
                fetch_stall = ready - hit_time;
                f = ready;
                self.fetch_slots_used = 0;
            }
            self.cur_fetch_line = line;
        }
        self.next_fetch_cycle = f;
        self.fetch_slots_used += 1;

        // ---- Dispatch ----
        // Each structural limit pushes dispatch out by the cycles its
        // slot is still busy; the push is that resource's stall.
        let mut disp = (f + self.cfg.frontend_depth).max(self.barrier_at);
        let rob_stall = self
            .commit_trail
            .ago(self.n, self.cfg.rob_entries)
            .saturating_sub(disp);
        disp += rob_stall;
        let iq_stall = self
            .issue_trail
            .ago(self.n, self.cfg.iq_entries)
            .saturating_sub(disp);
        disp += iq_stall;
        let lsq_limit = if d.kind == OpKind::Load {
            self.lq_ring.peek()
        } else if d.kind.is_store_like() {
            self.sq_ring.peek()
        } else {
            0
        };
        let lsq_stall = lsq_limit.saturating_sub(disp);
        disp += lsq_stall;
        self.stats.rob_stall_cycles += rob_stall;
        self.stats.iq_stall_cycles += iq_stall;
        self.stats.lsq_stall_cycles += lsq_stall;
        disp = disp.max(self.disp_trail.ago(self.n, self.cfg.issue_width) + 1);
        self.last_disp = self.last_disp.max(disp);

        // ---- Issue readiness ----
        let [s0, s1] = d.srcs;
        let mut ready = (disp + 1)
            .max(self.reg_ready[src_slot(s0)])
            .max(self.reg_ready[src_slot(s1)]);
        let serialized =
            self.cfg.serialize_rest_ops && matches!(d.kind, OpKind::Arm | OpKind::Disarm);
        if serialized {
            // The arm/disarm must be the only in-flight instruction:
            // wait for everything older to commit.
            ready = ready.max(self.last_commit);
        }

        // ---- Execute ----
        // `DynInst::mem` is present iff the kind is a memory kind: each
        // load and store-like micro-op takes its reference once here.
        let (issue, complete, drained): (u64, u64, Option<(StoreRec, MemRef)>) =
            match (d.kind, d.mem) {
                (OpKind::IntMul, _) => {
                    let issue = ready.max(self.mul_ring.peek());
                    self.mul_ring.push(issue + 1);
                    (issue, issue + self.cfg.mul_latency, None)
                }
                (OpKind::IntDiv, _) => {
                    let issue = ready.max(self.div_free);
                    let complete = issue + self.cfg.div_latency;
                    self.div_free = complete;
                    (issue, complete, None)
                }
                (OpKind::Load, Some(mem_ref)) => {
                    let (issue, complete, stall) = self.issue_load(d, mem_ref, ready, mem, token);
                    mem_stall = stall;
                    (issue, complete, None)
                }
                (OpKind::Store | OpKind::Arm | OpKind::Disarm, Some(mem_ref)) => {
                    // Table I LSQ rules against in-flight entries.
                    self.check_store_lsq_rules(d, mem_ref, ready);
                    let exec_done = ready + 1;
                    let rec = StoreRec {
                        addr: mem_ref.addr,
                        last: last_byte(mem_ref.addr, mem_ref.size),
                        kind: mem_ref.kind,
                        exec_done,
                        drain_done: u64::MAX, // filled at drain below
                    };
                    (ready, exec_done, Some((rec, mem_ref)))
                }
                // ALU ops and branches (a memory kind never lacks its
                // reference).
                _ => {
                    let issue = ready.max(self.alu_ring.peek());
                    self.alu_ring.push(issue + 1);
                    (issue, issue + 1, None)
                }
            };

        // ---- Branch resolution ----
        if let Some(info) = d.branch {
            self.stats.branch_lookups += 1;
            let correct = self.bpred.predict_and_train(d.pc, &info);
            if !correct {
                self.stats.branch_mispredicts += 1;
                self.redirect_at = complete + self.cfg.mispredict_penalty;
            }
        }

        // ---- Commit (in order, width-limited) ----
        let commit_floor = self
            .last_commit
            .max(self.commit_trail.ago(self.n, self.cfg.commit_width) + 1);
        let mut commit = commit_floor.max(complete + 1);
        // Cycles this store holds the ROB head beyond the in-order floor
        // (its own execution latency; debug mode adds the drain wait
        // below). This is the §VI-B "ROB blocked by store" statistic.
        if d.kind.is_store_like() && commit > commit_floor {
            self.stats.rob_blocked_store_cycles += commit - commit_floor;
            store_drain_stall += commit - commit_floor;
        }

        // ---- Store drain & commit policy ----
        if let Some((mut rec, mem_ref)) = drained {
            // Secure: commit first, write drains afterwards. Debug: the
            // write is issued when the store reaches the ROB head, and
            // commit waits for its completion.
            let drain_from = if self.mode.eager_store_commit() {
                commit
            } else {
                (complete + 1).max(self.last_commit)
            };
            let drain_start = drain_from
                .max(self.sq_drain_free)
                .max(self.port_ring.peek());
            self.port_ring.push(drain_start + 1);
            let out = self.hier.access_data(
                drain_start,
                mem_ref.kind,
                mem_ref.addr,
                mem_ref.size,
                mem,
                token,
                self.mode,
            );
            rec.drain_done = out.complete_at;
            self.sq_drain_free = drain_start + 1;
            if let Some(kind) = out.exception {
                self.record_rest_audit(kind, d, mem_ref.addr);
            }
            if !self.mode.eager_store_commit() && rec.drain_done > commit {
                self.stats.rob_blocked_store_cycles += rec.drain_done - commit;
                store_drain_stall += rec.drain_done - commit;
                commit = rec.drain_done;
            }
            // SQ entry frees when the write has drained.
            self.sq_ring.push(rec.drain_done);
            self.store_window.push(rec);
        }

        if serialized {
            // ...and nothing younger may dispatch until it commits.
            self.barrier_at = self.barrier_at.max(commit);
        }
        // The IQ entry frees at issue, the ROB entry at commit.
        self.disp_trail.record(self.n, disp);
        self.issue_trail.record(self.n, issue);
        self.commit_trail.record(self.n, commit);
        if d.kind == OpKind::Load {
            self.lq_ring.push(commit);
        }
        self.last_commit = commit;

        self.reg_ready[dst_slot(d.dst)] = complete;
        if let Some(tracer) = &mut self.tracer {
            tracer.record(TraceEntry {
                seq: self.n,
                pc: d.pc,
                kind: d.kind,
                component: d.component,
                fetch: f,
                dispatch: disp,
                issue,
                complete,
                commit,
            });
        }

        // ---- CPI-stack attribution ----
        // This micro-op advanced the commit frontier by `delta` cycles
        // (commit is monotone in program order, so delta ≥ 0 and the
        // per-uop deltas sum exactly to the final cycle count). Fill
        // the stall buckets most-specific-first, each clamped to what
        // remains unexplained; the residue is useful work (base). The
        // clamped fill keeps the exact-sum property even when stall
        // windows overlap.
        // A micro-op that leaves the frontier where it was adds nothing.
        let delta = commit - prev_commit;
        if delta > 0 {
            let mut remaining = delta;
            let [l1d_miss, l2_miss, dram, rest_check] = mem_stall;
            for (component, amount) in [
                (CpiComponent::StoreDrain, store_drain_stall),
                (CpiComponent::Dram, dram),
                (CpiComponent::L2Miss, l2_miss),
                (CpiComponent::L1dMiss, l1d_miss),
                (CpiComponent::RestCheck, rest_check),
                (CpiComponent::Lsq, lsq_stall),
                (CpiComponent::Rob, rob_stall),
                (CpiComponent::Iq, iq_stall),
                (CpiComponent::Branch, branch_stall),
                (CpiComponent::FetchStall, fetch_stall),
            ] {
                let take = amount.min(remaining);
                self.stats.cpi.add(component, take);
                remaining -= take;
            }
            self.stats.cpi.add(CpiComponent::Base, remaining);
        }
        self.n += 1;
    }

    /// Load issue: memory disambiguation against the in-flight store
    /// window, store-to-load forwarding (with the REST arm/disarm
    /// exception rule), then the cache access. The third return value
    /// is the CPI-stack latency split `[l1d-miss, l2-miss, dram,
    /// rest-check]` of the cache access (zero when forwarded).
    fn issue_load(
        &mut self,
        d: &DynInst,
        mem_ref: MemRef,
        ready: u64,
        mem: &dyn LineReader,
        token: &Token,
    ) -> (u64, u64, [u64; 4]) {
        let (addr, size) = (mem_ref.addr, mem_ref.size);
        let last = last_byte(addr, size);
        let mut ready = ready;
        let mut forwarded: Option<u64> = None;
        let mut forward_from_arm = false;
        self.prune_store_window();
        // The youngest in-flight store writing any byte of the load
        // decides.
        if let Some(s) = self.store_window.youngest_match(addr, last, ready).copied() {
            match s.kind {
                MemAccessKind::Arm | MemAccessKind::Disarm => {
                    // The load's match is an arm/disarm entry: raising
                    // instead of forwarding keeps the token secret
                    // (§III-B). Timing-wise the load completes (into the
                    // exception path) one cycle after issue.
                    self.stats.lsq_rest_exceptions += 1;
                    forward_from_arm = true;
                    forwarded = Some(ready.max(s.exec_done) + 1);
                }
                MemAccessKind::Store | MemAccessKind::Load => {
                    if s.contains(addr, last) {
                        self.stats.store_forwards += 1;
                        forwarded = Some(ready.max(s.exec_done) + 1);
                    } else {
                        // Partial overlap: wait until the store drains,
                        // then read the cache.
                        self.stats.load_partial_stalls += 1;
                        ready = ready.max(s.drain_done);
                    }
                }
            }
        }
        if forward_from_arm {
            self.record_rest_audit(RestExceptionKind::ForwardFromArm, d, addr);
        }
        if let Some(complete) = forwarded {
            return (ready, complete, [0; 4]);
        }
        let issue = ready.max(self.port_ring.peek());
        self.port_ring.push(issue + 1);
        let out = self.hier.access_data(
            issue,
            MemAccessKind::Load,
            addr,
            size,
            mem,
            token,
            self.mode,
        );
        if let Some(kind) = out.exception {
            self.record_rest_audit(kind, d, addr);
        }
        (
            issue,
            out.complete_at,
            [
                out.l1d_miss_cycles,
                out.l2_miss_cycles,
                out.dram_cycles,
                out.rest_check_cycles,
            ],
        )
    }

    /// Drops the oldest stores that no scan can match any more.
    ///
    /// Both window scans skip a store with `drain_done <= ready`, and
    /// every micro-op from the current one on has `ready >= dispatch + 1
    /// >= fetch + frontend_depth + 1`, with fetch monotone in program
    /// order. So a store that drained by the current fetch cycle plus
    /// `frontend_depth + 1` is skipped by every later scan. Dropping such
    /// stores from the front keeps the window a suffix of the last
    /// `sq_entries` stores that differs only in entries no scan matches.
    #[inline(always)]
    fn prune_store_window(&mut self) {
        let horizon = self.next_fetch_cycle + self.cfg.frontend_depth + 1;
        self.store_window.prune(horizon);
    }

    /// Table I LSQ-column checks for store-like micro-ops entering the
    /// store queue.
    fn check_store_lsq_rules(&mut self, d: &DynInst, mem_ref: MemRef, at: u64) {
        let addr = mem_ref.addr;
        self.prune_store_window();
        let detected = self
            .store_window
            .lsq_rule(d.kind, addr, last_byte(addr, mem_ref.size), at);
        if let Some(kind) = detected {
            self.stats.lsq_rest_exceptions += 1;
            self.record_rest_audit(kind, d, addr);
        }
    }

    /// Finalises the statistics (total cycle count, predictor counters).
    pub fn finish(&mut self) -> CoreStats {
        self.stats.cycles = self.last_commit;
        self.stats.branch_lookups = self.bpred.lookups();
        self.stats.branch_mispredicts = self.bpred.mispredicts();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::TokenWidth;
    use rest_isa::{BranchInfo, GuestMemory, Reg};
    use rest_mem::MemConfig;

    fn pipe(mode: Mode) -> (Pipeline, GuestMemory, Token) {
        let hier = Hierarchy::new(MemConfig::isca2018());
        let p = Pipeline::new(CoreConfig::isca2018(), hier, mode);
        let mem = GuestMemory::new();
        let mut rng = StdRng::seed_from_u64(1);
        let token = Token::generate(TokenWidth::B64, &mut rng);
        (p, mem, token)
    }

    #[test]
    fn a_trail_frees_slots_as_the_rings_it_replaces() {
        let lens = [1, 3, 8, 64, 192];
        let mut rings: Vec<Ring> = lens.iter().map(|&l| Ring::new(l)).collect();
        let mut trail = Trail::new(192);
        let mut x = 7u64;
        for n in 0..2_000u64 {
            for (ring, &len) in rings.iter().zip(&lens) {
                assert_eq!(trail.ago(n, len), ring.peek(), "len {len} at {n}");
                assert_eq!(trail.busy(n, len, x % 500), ring.busy(x % 500));
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1) >> 1;
            let commit = n + x % 300;
            for ring in &mut rings {
                ring.push(commit);
            }
            trail.record(n, commit);
        }
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        for i in 0..10_000u64 {
            let d = DynInst::alu(0x1_0000 + (i % 16) * 4, Some(Reg::A0), [None, None]);
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(
            s.uipc() > 4.0,
            "8-wide core must exceed 4 uipc on independent ALU ops, got {}",
            s.uipc()
        );
    }

    #[test]
    fn dependent_chain_limits_to_one_per_cycle() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        for i in 0..10_000u64 {
            let d = DynInst::alu(
                0x1_0000 + (i % 16) * 4,
                Some(Reg::A0),
                [Some(Reg::A0), None],
            );
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(
            s.uipc() < 1.2,
            "dependent chain cannot exceed 1 uipc, got {}",
            s.uipc()
        );
        assert!(s.uipc() > 0.8);
    }

    #[test]
    fn store_to_load_forwarding_beats_cache_latency() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        // Alternating store/load to the same address: loads forward.
        for i in 0..1000u64 {
            let st = DynInst::store(0x1_0000 + (i % 8) * 8, None, None, 0x5000, 8);
            p.process(&st, &mem, &tok);
            let ld = DynInst::load(0x1_0020, Some(Reg::A1), None, 0x5000, 8);
            p.process(&ld, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.store_forwards > 900, "forwards: {}", s.store_forwards);
    }

    #[test]
    fn forwarding_from_inflight_arm_raises_lsq_exception() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        let arm = DynInst::arm(0x1_0000, None, 0x6000, 64);
        p.process(&arm, &mem, &tok);
        let ld = DynInst::load(0x1_0004, Some(Reg::A0), None, 0x6010, 8);
        p.process(&ld, &mem, &tok);
        let s = p.finish();
        assert_eq!(s.lsq_rest_exceptions, 1);
    }

    #[test]
    fn debug_mode_store_misses_block_the_rob() {
        // Stores to distinct lines (all misses). In debug mode, commit
        // waits for each write; in secure mode it does not.
        let run = |mode: Mode| {
            let (mut p, mem, tok) = pipe(mode);
            for i in 0..2000u64 {
                let st = DynInst::store(0x1_0000 + (i % 8) * 4, None, None, 0x10_0000 + i * 64, 8);
                p.process(&st, &mem, &tok);
            }
            p.finish()
        };
        let secure = run(Mode::Secure);
        let debug = run(Mode::Debug);
        assert!(
            debug.cycles > secure.cycles * 2,
            "debug {} vs secure {}",
            debug.cycles,
            secure.cycles
        );
        assert!(
            debug.rob_blocked_store_cycles > 3 * secure.rob_blocked_store_cycles.max(1),
            "debug blocked {} vs secure blocked {}",
            debug.rob_blocked_store_cycles,
            secure.rob_blocked_store_cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        let mk = |taken: bool, i: u64| {
            DynInst::branch(
                0x1_0000 + (i % 4) * 4,
                [None, None],
                None,
                BranchInfo {
                    taken,
                    target: 0x1_0000,
                    conditional: true,
                    is_call: false,
                    is_return: false,
                    indirect: false,
                },
            )
        };
        // Pseudo-random outcomes: unpredictable.
        let (mut p, mem, tok) = pipe(Mode::Secure);
        let mut x = 12345u64;
        for i in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.process(&mk(x >> 63 == 1, i), &mem, &tok);
        }
        let random = p.finish();

        let (mut p2, mem2, tok2) = pipe(Mode::Secure);
        for i in 0..5000 {
            p2.process(&mk(true, i), &mem2, &tok2);
        }
        let steady = p2.finish();
        assert!(random.branch_mispredicts > steady.branch_mispredicts * 5);
        assert!(random.cycles > steady.cycles);
    }

    #[test]
    fn cache_misses_slow_the_stream_down() {
        let run = |stride: u64| {
            let (mut p, mem, tok) = pipe(Mode::Secure);
            for i in 0..5000u64 {
                let ld = DynInst::load(
                    0x1_0000 + (i % 8) * 4,
                    Some(Reg::A0),
                    [None, None][0],
                    0x20_0000 + i * stride,
                    8,
                );
                // Dependent chain so latency is exposed.
                let ld = DynInst {
                    srcs: [Some(Reg::A0), None],
                    ..ld
                };
                p.process(&ld, &mem, &tok);
            }
            p.finish().cycles
        };
        let hits = run(0); // same address: always hits after first
        let misses = run(4096); // new page every time: L2+DRAM misses
        assert!(misses > hits * 3, "misses {misses} vs hits {hits}");
    }

    #[test]
    fn iq_and_rob_stalls_are_counted_under_pressure() {
        let (mut p, mem, tok) = pipe(Mode::Secure);
        // A long dependent divide chain backs everything up.
        for i in 0..5000u64 {
            let d = DynInst::alu(0x1_0000 + (i % 8) * 4, Some(Reg::A0), [Some(Reg::A0), None])
                .with_kind(OpKind::IntDiv);
            p.process(&d, &mem, &tok);
        }
        let s = p.finish();
        assert!(s.iq_stall_cycles + s.rob_stall_cycles > 0);
        assert!(s.uipc() < 0.1);
    }
}
