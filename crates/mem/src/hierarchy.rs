use rest_core::table1::{cache_decision, Action};
use rest_core::{Mode, RestExceptionKind, Token};
use rest_faults::FaultHandle;
use rest_isa::{GuestMemory, MemAccessKind};

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::mshr::MshrFile;
use crate::stats::MemStats;
use crate::wbuf::WriteBuffer;

/// Source of functional (architectural) line bytes for the token
/// detector in the L1-D fill path.
pub trait LineReader {
    /// Returns the 64 bytes of the line at `line_addr` (line-aligned).
    fn read_line(&self, line_addr: u64) -> [u8; 64];
}

impl LineReader for GuestMemory {
    fn read_line(&self, line_addr: u64) -> [u8; 64] {
        if let Some(img) = self.pre_line_image(line_addr) {
            // The functional emulator has already applied an arm/disarm
            // to this line; the timing model must observe the pre-update
            // content a real fill would fetch.
            return *img;
        }
        let mut buf = [0u8; 64];
        self.read_bytes(line_addr, &mut buf);
        buf
    }
}

/// Which level ultimately supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1,
    L2,
    Dram,
}

/// Result of one data access walked through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOutcome {
    /// Cycle at which the requested word is available to the pipeline
    /// (critical-word-first on misses).
    pub complete_at: u64,
    /// Cycle at which the *full line* has arrived and been checked by
    /// the token detector (== `complete_at` on hits).
    pub line_checked_at: u64,
    /// Hardware-detected REST violation, if any (Table I).
    pub exception: Option<RestExceptionKind>,
    /// Level that served the access.
    pub served_by: ServedBy,
    /// Debug mode only: the load was held in the MSHR because the
    /// delivered critical word partially matched the token value.
    pub held_for_check: bool,
    /// CPI-stack attribution of `complete_at - (now + L1D hit latency)`
    /// — the latency *beyond* an L1-D hit, split by where it was spent.
    /// Cycles waiting on the L2 (access served by the L2).
    pub l1d_miss_cycles: u64,
    /// Cycles spent in the L2 lookup on the way to DRAM.
    pub l2_miss_cycles: u64,
    /// Cycles waiting on DRAM beyond the L2 lookup.
    pub dram_cycles: u64,
    /// Extra cycles caused by REST itself: disarm's zeroing cycle,
    /// debug-mode full-line-check holds, token-cache re-install.
    pub rest_check_cycles: u64,
}

/// What one access found and left in the L1-D (see
/// [`Hierarchy::ensure_l1d_resident`]).
struct L1dAccess {
    /// Cycle the critical word is available.
    data_at: u64,
    /// Cycle the full line has arrived and been checked.
    checked_at: u64,
    served: ServedBy,
    /// Whether the line's tag was present before the access (Table I's
    /// "hit" column).
    was_hit: bool,
    /// Token bits of the line after the access; `None` if the line is
    /// not resident.
    token_mask: Option<u8>,
}

/// An access's L1-D tag check (see [`Hierarchy::probe_l1d`]).
enum L1dProbe {
    /// Served without a fill of its own: a token-cache re-install or a
    /// merge onto an in-flight fill.
    Served(L1dAccess),
    /// The tag was present, with these token bits.
    Hit(u8),
    Miss,
}

/// Last byte of the access `[addr, addr + size)`. Inclusive, so an
/// access ending at the top of the address space does not overflow; a
/// zero-size access covers its first byte.
#[inline(always)]
fn last_byte(addr: u64, size: u64) -> u64 {
    addr.saturating_add(size.max(1) - 1)
}

/// The simulated memory hierarchy: split L1s, unified L2, DRAM — with
/// the REST token detector and per-line token bits at the L1-D.
///
/// See the crate docs for the modelling approach. All latencies are in
/// core cycles at the paper's 2 GHz clock.
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1i_mshrs: MshrFile,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    l1d_wbuf: WriteBuffer,
    l2_wbuf: WriteBuffer,
    dram: Dram,
    stats: MemStats,
    /// Extra cycles after the critical word until the full 64 B line has
    /// streamed in and the detector has finished (4 × 16 B fill beats).
    line_fill_tail: u64,
    /// §VIII token cache: line addresses (with their token masks) of
    /// armed lines evicted from the L1-D, FIFO-replaced. Empty capacity
    /// disables the feature.
    token_cache: std::collections::VecDeque<(u64, u8)>,
    token_cache_entries: usize,
    /// Seeded fault injection (shared with the emulator). The hierarchy
    /// hosts the micro-architectural trigger sites: fill-time detection
    /// masks, arm-driven token-bit writes, and metadata-carrying
    /// evictions. None on fault-free runs — the hooks cost nothing.
    fault: Option<FaultHandle>,
}

impl Hierarchy {
    /// Builds an empty hierarchy from `cfg`.
    pub fn new(cfg: MemConfig) -> Hierarchy {
        Hierarchy {
            l1i_mshrs: MshrFile::new(cfg.l1i.mshr_entries, cfg.l1i.mshr_targets),
            l1d_mshrs: MshrFile::new(cfg.l1d.mshr_entries, cfg.l1d.mshr_targets),
            l2_mshrs: MshrFile::new(cfg.l2.mshr_entries, cfg.l2.mshr_targets),
            l1d_wbuf: WriteBuffer::new(cfg.l1d.write_buffer_entries),
            l2_wbuf: WriteBuffer::new(cfg.l2.write_buffer_entries),
            dram: Dram::new(cfg.dram.clone()),
            l1i: Cache::new(cfg.l1i, "L1I"),
            l1d: Cache::new(cfg.l1d, "L1D"),
            l2: Cache::new(cfg.l2, "L2"),
            stats: MemStats::default(),
            line_fill_tail: 4,
            token_cache: std::collections::VecDeque::new(),
            token_cache_entries: cfg.token_cache_entries,
            fault: None,
        }
    }

    /// Attaches shared fault-injection state (cloned from the emulator's
    /// handle so both sides observe the same trigger counters).
    pub fn set_fault(&mut self, fault: FaultHandle) {
        self.fault = Some(fault);
    }

    /// Collected statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The L1 data cache (exposed for directed tests).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Invalidates `addr`'s L1-D line (incoming coherence invalidation
    /// or DMA to the line). Per Table I, coherence messages are handled
    /// "as usual" — in particular the token detector does NOT examine
    /// DMA traffic, which is why §V-B notes REST cannot catch token
    /// accesses that sidestep the cache entirely.
    pub fn coherence_invalidate(&mut self, addr: u64) {
        if let Some(ev) = self.l1d.invalidate(addr) {
            if ev.token_mask != 0 {
                self.stats.token_lines_evicted_l1d += 1;
            }
        }
        self.l2.invalidate(addr);
    }

    /// Base address of the L1-I line holding `pc`: the unit of
    /// instruction fetch.
    pub fn inst_line(&self, pc: u64) -> u64 {
        self.l1i.line_addr(pc)
    }

    /// Instruction fetch of the line containing `pc`; returns the cycle
    /// at which fetch data is available.
    #[inline]
    pub fn fetch_inst(&mut self, now: u64, pc: u64, mem: &dyn LineReader, token: &Token) -> u64 {
        let line = self.inst_line(pc);
        // A line whose fill is still in flight is not yet present, even
        // though its tag has been pre-installed: check the MSHRs first.
        if let Some(done) = self.l1i_mshrs.merge(line, now) {
            self.stats.l1i_misses += 1;
            return done;
        }
        if self.l1i.lookup(line, false).is_some() {
            self.stats.l1i_hits += 1;
            return now + self.l1i.config().hit_latency;
        }
        self.fetch_inst_miss(now, line, mem, token)
    }

    /// [`Hierarchy::fetch_inst`] of a line that is neither resident nor
    /// in flight.
    #[inline(never)]
    fn fetch_inst_miss(&mut self, now: u64, line: u64, mem: &dyn LineReader, token: &Token) -> u64 {
        self.stats.l1i_misses += 1;
        let start = now + self.l1i.config().hit_latency;
        let (data_at, _) = self.fetch_from_l2(start, line, mem, token);
        let done = data_at;
        let alloc_start = self.l1i_mshrs.allocate(line, now, done);
        let done = done + (alloc_start - now);
        // Fill L1I (instruction lines never carry tokens or dirt).
        self.l1i.fill(line, false, 0);
        done
    }

    /// Fetches `line` from the L2 (and below), filling the L2 on a miss.
    /// Returns `(critical word available, served_by_dram)`.
    fn fetch_from_l2(
        &mut self,
        now: u64,
        line: u64,
        mem: &dyn LineReader,
        token: &Token,
    ) -> (u64, bool) {
        if let Some(done) = self.l2_mshrs.merge(line, now) {
            self.stats.l2_misses += 1;
            return (done, true);
        }
        if self.l2.lookup(line, false).is_some() {
            self.stats.l2_hits += 1;
            return (now + self.l2.config().hit_latency, false);
        }
        self.stats.l2_misses += 1;
        let start = now + self.l2.config().hit_latency;
        let dram_done = self.dram.access(start, line);
        self.stats.dram_accesses += 1;
        // Content-based accounting of token lines crossing the L2/memory
        // interface (paper §VI-B prose statistic).
        if token.line_contains_token(&mem.read_line(line)) {
            self.stats.token_lines_l2_mem += 1;
        }
        let alloc_start = self.l2_mshrs.allocate(line, now, dram_done);
        let dram_done = dram_done + (alloc_start - now);
        if let Some(ev) = self.l2.fill(line, false, 0) {
            if ev.dirty {
                self.stats.l2_writebacks += 1;
                if token.line_contains_token(&mem.read_line(ev.addr)) {
                    self.stats.token_lines_l2_mem += 1;
                }
                // Drain to DRAM through the L2 write buffer.
                let drain = self.dram_writeback_latency();
                self.l2_wbuf.push(dram_done, drain);
            }
        }
        (dram_done, true)
    }

    fn dram_writeback_latency(&self) -> u64 {
        // Writebacks are fire-and-forget; charge a row-hit-ish occupancy.
        48
    }

    /// Applies an `EvictionMetaDrop` fault to an outgoing line's token
    /// mask: on the trigger eviction the metadata is lost (the decay of
    /// the guarded tokens is queued for the emulator) and the caller
    /// sees a token-free eviction.
    fn faulted_eviction_mask(&self, line: u64, mask: u8, token: &Token) -> u8 {
        if mask != 0 {
            if let Some(f) = &self.fault {
                if f.drop_eviction(line, mask, token.width().bytes()) {
                    return 0;
                }
            }
        }
        mask
    }

    /// The L1-D tag check of an access to `line` at `now`, before any
    /// fill: a token-cache re-install or a merge onto an in-flight fill
    /// serves it outright; otherwise one tag search gives the hit check,
    /// the LRU and dirty update and the line's token bits.
    #[inline(always)]
    fn probe_l1d(&mut self, now: u64, line: u64, is_write: bool, token: &Token) -> L1dProbe {
        if self.token_cache_entries > 0 {
            if let Some(access) = self.reinstall_from_token_cache(now, line, is_write, token) {
                return L1dProbe::Served(access);
            }
        }
        if let Some(done) = self.l1d_mshrs.merge(line, now) {
            // Secondary miss: data at primary fill completion. The tag
            // was pre-installed by the primary; record the touch so LRU
            // and dirty state stay correct.
            self.stats.l1d_misses += 1;
            let token_mask = self.l1d.lookup(line, is_write);
            return L1dProbe::Served(L1dAccess {
                data_at: done,
                checked_at: done + self.line_fill_tail,
                served: ServedBy::L2,
                was_hit: token_mask.is_some(),
                token_mask,
            });
        }
        match self.l1d.lookup(line, is_write) {
            Some(mask) => L1dProbe::Hit(mask),
            None => L1dProbe::Miss,
        }
    }

    /// §VIII token cache: an armed line parked in the dedicated buffer
    /// is re-installed at near-L1 latency, token bits intact. `None` if
    /// the buffer does not hold `line`. Only token-cache runs get here.
    #[inline(never)]
    fn reinstall_from_token_cache(
        &mut self,
        now: u64,
        line: u64,
        is_write: bool,
        token: &Token,
    ) -> Option<L1dAccess> {
        let pos = self.token_cache.iter().position(|&(a, _)| a == line)?;
        let was_hit = self.l1d.probe(line);
        let (_, mask) = self.token_cache.remove(pos)?;
        self.stats.token_cache_hits += 1;
        let t = now + self.l1d.config().hit_latency + 1;
        if let Some(ev) = self.l1d.fill(line, true, mask) {
            let ev_mask = self.faulted_eviction_mask(ev.addr, ev.token_mask, token);
            if ev_mask != 0 {
                self.stats.token_lines_evicted_l1d += 1;
                self.token_cache.push_back((ev.addr, ev_mask));
                while self.token_cache.len() > self.token_cache_entries {
                    self.token_cache.pop_front();
                }
            }
        }
        Some(L1dAccess {
            data_at: t,
            checked_at: t,
            served: ServedBy::L1,
            was_hit,
            token_mask: self.l1d.lookup(line, is_write),
        })
    }

    /// Completes an access's L1-D residency from its [`probe_l1d`]
    /// result: a hit is served at hit latency, a miss fetches the line
    /// from the L2 (and below) and runs the token detector on the fill.
    ///
    /// [`probe_l1d`]: Hierarchy::probe_l1d
    fn ensure_l1d_resident(
        &mut self,
        probe: L1dProbe,
        now: u64,
        line: u64,
        is_write: bool,
        mem: &dyn LineReader,
        token: &Token,
    ) -> L1dAccess {
        match probe {
            L1dProbe::Served(access) => return access,
            L1dProbe::Hit(token_mask) => {
                self.stats.l1d_hits += 1;
                let t = now + self.l1d.config().hit_latency;
                return L1dAccess {
                    data_at: t,
                    checked_at: t,
                    served: ServedBy::L1,
                    was_hit: true,
                    token_mask: Some(token_mask),
                };
            }
            L1dProbe::Miss => {}
        }
        self.stats.l1d_misses += 1;
        let start = now + self.l1d.config().hit_latency;
        let (data_at, from_dram) = self.fetch_from_l2(start, line, mem, token);
        let alloc_start = self.l1d_mshrs.allocate(line, now, data_at);
        let data_at = data_at + (alloc_start - now);
        // Token detector runs as the line streams in. An injected
        // metadata-bit fault perturbs the detector's mask: a cleared bit
        // loses a real detection (fail-open), a set bit plants a
        // spurious one (fail-closed).
        let mut mask = token.line_token_mask(&mem.read_line(line));
        if let Some(f) = &self.fault {
            mask = f.filter_fill_mask(line, mask, token.width().bytes());
        }
        if mask != 0 {
            self.stats.token_detections_on_fill += 1;
        }
        if let Some(ev) = self.l1d.fill(line, is_write, mask) {
            // Eviction-time metadata loss: the outgoing packet's token
            // mask is dropped and the decay is queued for the emulator.
            let ev_mask = self.faulted_eviction_mask(ev.addr, ev.token_mask, token);
            if ev_mask != 0 {
                // Lazy materialisation: the token value travels in the
                // outgoing packet (Table I, Eviction row).
                self.stats.token_lines_evicted_l1d += 1;
                if self.token_cache_entries > 0 {
                    self.token_cache.push_back((ev.addr, ev_mask));
                    while self.token_cache.len() > self.token_cache_entries {
                        self.token_cache.pop_front();
                    }
                }
            }
            if ev.dirty || ev_mask != 0 {
                self.stats.l1d_writebacks += 1;
                let drain = self.l2.config().hit_latency;
                self.l1d_wbuf.push(data_at, drain);
                // Install the writeback in the L2.
                if let Some(l2ev) = self.l2.fill(ev.addr, true, 0) {
                    if l2ev.dirty {
                        self.stats.l2_writebacks += 1;
                        if token.line_contains_token(&mem.read_line(l2ev.addr)) {
                            self.stats.token_lines_l2_mem += 1;
                        }
                        let drain = self.dram_writeback_latency();
                        self.l2_wbuf.push(data_at, drain);
                    }
                }
            }
        }
        L1dAccess {
            data_at,
            checked_at: data_at + self.line_fill_tail,
            served: if from_dram {
                ServedBy::Dram
            } else {
                ServedBy::L2
            },
            was_hit: false,
            token_mask: Some(mask),
        }
    }

    /// Walks one data access through the hierarchy, applying the REST
    /// rules of Table I.
    ///
    /// * `mem` supplies functional line bytes for the token detector —
    ///   pass the architectural memory image *before* this access's own
    ///   write is applied.
    /// * `mode` selects secure/debug behaviour (store-commit policy is
    ///   the pipeline's job, but the critical-word-first load hold is
    ///   modelled here).
    ///
    /// The common case is served inline: a plain load or store that
    /// hits a token-free line and stays inside it. Table I then raises
    /// nothing and changes no token bit, and the access completes at the
    /// L1-D hit latency with nothing to attribute. Every other access
    /// takes the full walk, handed the tag check already done.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn access_data(
        &mut self,
        now: u64,
        kind: MemAccessKind,
        addr: u64,
        size: u64,
        mem: &dyn LineReader,
        token: &Token,
        mode: Mode,
    ) -> DataOutcome {
        let line = self.l1d.line_addr(addr);
        let probe = self.probe_l1d(now, line, kind != MemAccessKind::Load, token);
        if self.is_plain_hit(&probe, kind, addr, size) {
            self.stats.l1d_hits += 1;
            let t = now + self.l1d.config().hit_latency;
            return DataOutcome {
                complete_at: t,
                line_checked_at: t,
                exception: None,
                served_by: ServedBy::L1,
                held_for_check: false,
                l1d_miss_cycles: 0,
                l2_miss_cycles: 0,
                dram_cycles: 0,
                rest_check_cycles: 0,
            };
        }
        self.walk_data(probe, now, kind, addr, size, mem, token, mode)
    }

    /// Whether [`Hierarchy::access_data`] serves an access inline: a
    /// load or store (not an arm or disarm) whose tag check hit a line
    /// without token bits, with every byte inside that line.
    #[inline(always)]
    fn is_plain_hit(&self, probe: &L1dProbe, kind: MemAccessKind, addr: u64, size: u64) -> bool {
        matches!(probe, L1dProbe::Hit(0))
            && matches!(kind, MemAccessKind::Load | MemAccessKind::Store)
            && self.l1d.line_addr(last_byte(addr, size)) == self.l1d.line_addr(addr)
    }

    /// [`Hierarchy::access_data`]'s full walk from the access's L1-D
    /// tag check.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn walk_data(
        &mut self,
        probe: L1dProbe,
        now: u64,
        kind: MemAccessKind,
        addr: u64,
        size: u64,
        mem: &dyn LineReader,
        token: &Token,
        mode: Mode,
    ) -> DataOutcome {
        let w = token.width().bytes();
        let line = self.l1d.line_addr(addr);
        let is_write = kind != MemAccessKind::Load;
        let L1dAccess {
            data_at,
            checked_at,
            served,
            was_hit,
            token_mask,
        } = self.ensure_l1d_resident(probe, now, line, is_write, mem, token);
        let mut complete_at = data_at;
        let mut held = false;

        // CPI-stack attribution: split the latency beyond an L1-D hit
        // by the level that caused it. For DRAM-served accesses the L2
        // lookup happened on the miss path, so up to one L2 hit latency
        // belongs to the L2-miss bucket and the rest to DRAM.
        let hit_time = now + self.l1d.config().hit_latency;
        let miss_extra = data_at.saturating_sub(hit_time);
        let (mut l1d_miss_cycles, mut l2_miss_cycles, mut dram_cycles) = (0, 0, 0);
        let mut rest_check_cycles = 0;
        match served {
            // Token-cache re-installs complete at hit latency + 1; that
            // extra cycle is REST's, not the memory system's.
            ServedBy::L1 => rest_check_cycles += miss_extra,
            ServedBy::L2 => l1d_miss_cycles = miss_extra,
            ServedBy::Dram => {
                l2_miss_cycles = miss_extra.min(self.l2.config().hit_latency);
                dram_cycles = miss_extra - l2_miss_cycles;
            }
        }

        // Post-fill token-bit state covering the access: an arm or
        // disarm covers one slot; a scalar access may straddle two slots
        // within the line, or the line boundary (then the next line's
        // bits are looked up too).
        let span = match kind {
            MemAccessKind::Arm | MemAccessKind::Disarm => 1,
            _ => size.max(1),
        };
        let last = last_byte(addr, span);
        let token_bit = match token_mask {
            Some(mask) if self.l1d.line_addr(last) == line => {
                let (first_slot, last_slot) = ((addr - line) / w, (last - line) / w);
                (first_slot..=last_slot).any(|slot| mask & (1 << slot) != 0)
            }
            _ => self.l1d.access_touches_token(addr, span, w),
        };

        let action = match (kind, mode) {
            (MemAccessKind::Arm, _) => Action::Arm,
            (MemAccessKind::Disarm, _) => Action::Disarm,
            (MemAccessKind::Load, _) => Action::Load,
            (MemAccessKind::Store, Mode::Secure) => Action::StoreSecure,
            (MemAccessKind::Store, Mode::Debug) => Action::StoreDebug,
        };
        let decision = cache_decision(action, was_hit, token_bit);

        if let Some(kind) = decision.exception {
            self.stats.rest_exceptions += 1;
            return DataOutcome {
                complete_at,
                line_checked_at: checked_at,
                exception: Some(kind),
                served_by: served,
                held_for_check: false,
                l1d_miss_cycles,
                l2_miss_cycles,
                dram_cycles,
                rest_check_cycles,
            };
        }
        if decision.set_token_bit {
            // Arm: set the bit; the wide value write is deferred to
            // eviction, so an L1 hit completes in a single cycle. A
            // `MetaBitClear` fault can lose exactly this write — the
            // slot is then armed architecturally but invisible to the
            // hardware detector until a refill re-detects it.
            let slot_addr = addr / w * w;
            let dropped = self
                .fault
                .as_ref()
                .is_some_and(|f| f.suppress_arm_bit(slot_addr));
            if !dropped {
                let slot = (addr % 64) / w;
                self.l1d.set_token_bits(addr, 1u8 << slot);
                self.l1d.mark_dirty(addr);
            }
        }
        if decision.clear_slot_unset_bit {
            // Disarm: zero the slot across all data banks; one extra
            // cycle of latency (§III-B).
            self.l1d.clear_token_bit(addr, w);
            complete_at += 1;
            rest_check_cycles += 1;
        }
        // Critical-word-first vs. debug mode: a missing load whose
        // delivered word partially matches the token is not released
        // from the MSHR until the full line has been checked.
        if kind == MemAccessKind::Load && !was_hit && mode == Mode::Debug {
            let line_bytes = mem.read_line(line);
            let off = (addr - line) as usize;
            let end = (off + size as usize).min(64);
            let tok_slot_off = off % w as usize;
            let tok = token.bytes();
            let partial_match = (off..end).all(|i| {
                let ti = (tok_slot_off + (i - off)) % w as usize;
                line_bytes[i] == tok[ti]
            });
            if partial_match {
                let released_at = complete_at.max(checked_at);
                rest_check_cycles += released_at - complete_at;
                complete_at = released_at;
                held = true;
                self.stats.debug_load_holds += 1;
            }
        }
        DataOutcome {
            complete_at,
            line_checked_at: checked_at,
            exception: None,
            served_by: served,
            held_for_check: held,
            l1d_miss_cycles,
            l2_miss_cycles,
            dram_cycles,
            rest_check_cycles,
        }
    }

    /// Fills the memory-side occupancy gauges (MSHRs in flight, write
    /// buffer entries draining) at `now`. The core fills the
    /// pipeline-side gauges.
    pub fn fill_gauges(&mut self, now: u64, gauges: &mut rest_obs::Gauges) {
        gauges.l1d_mshrs = self.l1d_mshrs.occupancy(now) as u64;
        gauges.l2_mshrs = self.l2_mshrs.occupancy(now) as u64;
        gauges.write_buffer = (self.l1d_wbuf.occupancy(now) + self.l2_wbuf.occupancy(now)) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::TokenWidth;

    fn setup(width: TokenWidth) -> (Hierarchy, GuestMemory, Token) {
        let h = Hierarchy::new(MemConfig::isca2018());
        let mem = GuestMemory::new();
        let mut rng = StdRng::seed_from_u64(42);
        let token = Token::generate(width, &mut rng);
        (h, mem, token)
    }

    #[test]
    fn load_hit_takes_hit_latency() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let first = h.access_data(0, MemAccessKind::Load, 0x1000, 8, &mem, &tok, Mode::Secure);
        assert!(first.complete_at > 2); // miss
        let hit = h.access_data(
            first.complete_at,
            MemAccessKind::Load,
            0x1008,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(hit.complete_at, first.complete_at + 2);
        assert_eq!(hit.served_by, ServedBy::L1);
        assert_eq!(h.stats().l1d_hits, 1);
        assert_eq!(h.stats().l1d_misses, 1);
    }

    #[test]
    fn fill_detects_token_and_access_faults() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Architecturally armed line at 0x2000 (token bytes in memory).
        mem.write_bytes(0x2000, tok.bytes());
        let out = h.access_data(0, MemAccessKind::Load, 0x2010, 8, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
        assert_eq!(h.stats().token_detections_on_fill, 1);
        assert_eq!(h.stats().rest_exceptions, 1);

        let out = h.access_data(
            100,
            MemAccessKind::Store,
            0x2000,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(out.exception, Some(RestExceptionKind::TokenStore));
    }

    #[test]
    fn arm_sets_bit_and_disarm_clears_it() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        let out = h.access_data(0, MemAccessKind::Arm, 0x3000, 64, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        assert!(h.l1d().token_bit_covering(0x3000, 64));
        // The architectural arm effect (emulator's job in the full system).
        mem.write_bytes(0x3000, tok.bytes());

        // Load to the armed line faults without any refill. (Cycle 1000
        // is safely past the arm's fill.)
        let out = h.access_data(
            1000,
            MemAccessKind::Load,
            0x3008,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));

        // Disarm clears and zeroes; costs one extra cycle over a hit.
        let out = h.access_data(
            1100,
            MemAccessKind::Disarm,
            0x3000,
            64,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert!(out.exception.is_none());
        assert_eq!(out.complete_at, 1100 + 2 + 1);
        assert!(!h.l1d().token_bit_covering(0x3000, 64));
        mem.fill(0x3000, 64, 0);

        let out = h.access_data(
            1200,
            MemAccessKind::Load,
            0x3000,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert!(out.exception.is_none());
    }

    #[test]
    fn disarm_of_unarmed_location_faults() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let out = h.access_data(
            0,
            MemAccessKind::Disarm,
            0x4000,
            64,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(out.exception, Some(RestExceptionKind::DisarmUnarmed));
    }

    #[test]
    fn transient_token_value_in_resident_line_not_flagged_until_refill() {
        // §V-B condition 3: data acquiring the token value while already
        // in the L1-D raises nothing; after eviction + refill the
        // detector fires.
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Make the line resident (zeroes).
        let out = h.access_data(0, MemAccessKind::Load, 0x5000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        // A store functionally writes token-looking bytes.
        mem.write_bytes(0x5000, tok.bytes());
        let out = h.access_data(
            100,
            MemAccessKind::Store,
            0x5000,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert!(out.exception.is_none(), "resident line: no detection");
        // Evict and refill: detection fires now.
        h.l1d_invalidate_for_test(0x5000);
        let out = h.access_data(
            200,
            MemAccessKind::Load,
            0x5000,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
    }

    #[test]
    fn debug_mode_holds_load_on_partial_token_match() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        // Line whose first 8 bytes equal the token's first 8 bytes but
        // the rest differs: partial critical-word match, full-line
        // mismatch.
        mem.write_bytes(0x6000, &tok.bytes()[..8]);
        let out = h.access_data(0, MemAccessKind::Load, 0x6000, 8, &mem, &tok, Mode::Debug);
        assert!(out.exception.is_none());
        assert!(out.held_for_check);
        assert_eq!(out.complete_at, out.line_checked_at);
        assert_eq!(h.stats().debug_load_holds, 1);

        // A non-matching load in debug mode is released immediately.
        let out = h.access_data(500, MemAccessKind::Load, 0x7000, 8, &mem, &tok, Mode::Debug);
        assert!(!out.held_for_check);
        assert!(out.complete_at < out.line_checked_at);
    }

    #[test]
    fn secure_mode_never_holds_loads() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        mem.write_bytes(0x6000, &tok.bytes()[..8]);
        let out = h.access_data(0, MemAccessKind::Load, 0x6000, 8, &mem, &tok, Mode::Secure);
        assert!(!out.held_for_check);
        assert!(out.complete_at < out.line_checked_at);
    }

    #[test]
    fn narrow_tokens_arm_individual_slots() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B16);
        h.access_data(0, MemAccessKind::Arm, 0x8010, 16, &mem, &tok, Mode::Secure);
        mem.write_bytes(0x8010, tok.bytes());
        // Slot 0 (0x8000..0x8010) is unarmed: loads fine.
        let out = h.access_data(50, MemAccessKind::Load, 0x8000, 8, &mem, &tok, Mode::Secure);
        assert!(out.exception.is_none());
        // Slot 1 armed: faults.
        let out = h.access_data(60, MemAccessKind::Load, 0x8010, 4, &mem, &tok, Mode::Secure);
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
        // Straddling access from slot 0 into slot 1 faults too.
        let out = h.access_data(70, MemAccessKind::Load, 0x800c, 8, &mem, &tok, Mode::Secure);
        assert_eq!(
            out.exception,
            Some(RestExceptionKind::TokenStore).map(|_| RestExceptionKind::TokenLoad)
        );
    }

    #[test]
    fn armed_line_eviction_counts_token_traffic() {
        let (mut h, mut mem, tok) = setup(TokenWidth::B64);
        h.access_data(0, MemAccessKind::Arm, 0x9000, 64, &mem, &tok, Mode::Secure);
        mem.write_bytes(0x9000, tok.bytes());
        // Thrash the set: L1D is 64kB 8-way => set stride 8 kB; touch 9
        // more lines mapping to the same set.
        let mut t = 100;
        for i in 1..=9u64 {
            let addr = 0x9000 + i * 8 * 1024;
            let out = h.access_data(t, MemAccessKind::Load, addr, 8, &mem, &tok, Mode::Secure);
            t = out.complete_at + 1;
        }
        assert!(h.stats().token_lines_evicted_l1d >= 1);
        // Refetch the armed line: detector re-arms it from content.
        let out = h.access_data(
            t + 10,
            MemAccessKind::Load,
            0x9000,
            8,
            &mem,
            &tok,
            Mode::Secure,
        );
        assert_eq!(out.exception, Some(RestExceptionKind::TokenLoad));
    }

    #[test]
    fn instruction_fetches_hit_after_first_miss() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let t1 = h.fetch_inst(0, 0x1_0000, &mem, &tok);
        assert!(t1 > 2);
        let t2 = h.fetch_inst(t1, 0x1_0004, &mem, &tok);
        assert_eq!(t2, t1 + 2);
        assert_eq!(h.stats().l1i_misses, 1);
        assert_eq!(h.stats().l1i_hits, 1);
    }

    #[test]
    fn mshr_merge_serves_secondary_miss_with_primary_fill() {
        let (mut h, mem, tok) = setup(TokenWidth::B64);
        let a = h.access_data(0, MemAccessKind::Load, 0xa000, 8, &mem, &tok, Mode::Secure);
        // Same line, issued while the fill is in flight.
        let b = h.access_data(1, MemAccessKind::Load, 0xa020, 8, &mem, &tok, Mode::Secure);
        assert_eq!(b.complete_at, a.complete_at);
        assert_eq!(h.stats().l1d_misses, 2);
        assert_eq!(h.stats().l2_misses, 1, "merged miss must not re-access L2");
    }

    /// Drives the same access through `access_data` on `fast` and
    /// through the full walk on `walk`, requiring identical outcomes,
    /// statistics and LRU state; returns whether the access was eligible
    /// for the inline path.
    #[allow(clippy::too_many_arguments)]
    fn same_as_walk(
        fast: &mut Hierarchy,
        walk: &mut Hierarchy,
        now: u64,
        kind: MemAccessKind,
        addr: u64,
        size: u64,
        mem: &GuestMemory,
        tok: &Token,
        mode: Mode,
    ) -> bool {
        let line = walk.l1d.line_addr(addr);
        let probe = walk.probe_l1d(now, line, kind != MemAccessKind::Load, tok);
        let inline = walk.is_plain_hit(&probe, kind, addr, size);
        let want = walk.walk_data(probe, now, kind, addr, size, mem, tok, mode);
        let got = fast.access_data(now, kind, addr, size, mem, tok, mode);
        assert_eq!(got, want, "{kind:?} {addr:#x}+{size} at {now}");
        assert_eq!(
            fast.stats(),
            walk.stats(),
            "{kind:?} {addr:#x}+{size} at {now}"
        );
        inline
    }

    #[test]
    fn inline_hits_match_the_full_walk_and_every_other_access_walks() {
        for mode in [Mode::Secure, Mode::Debug] {
            let (mut fast, mut mem, tok) = setup(TokenWidth::B64);
            let (mut walk, _, _) = setup(TokenWidth::B64);
            let mut both = |now, kind, addr, size, mem: &GuestMemory| {
                same_as_walk(&mut fast, &mut walk, now, kind, addr, size, mem, &tok, mode)
            };
            // Cold misses, then an arm in its own line: none inline.
            assert!(!both(0, MemAccessKind::Load, 0x1000, 8, &mem));
            assert!(!both(1, MemAccessKind::Store, 0x1040, 8, &mem));
            // A second access to a line whose fill is still in flight
            // merges onto it.
            assert!(!both(2, MemAccessKind::Load, 0x1008, 8, &mem));
            assert!(!both(3, MemAccessKind::Arm, 0x2000, 64, &mem));
            mem.write_bytes(0x2000, tok.bytes());
            // Loads and stores hitting token-free lines, inside them.
            let t = 1_000;
            assert!(both(t, MemAccessKind::Load, 0x1010, 8, &mem));
            assert!(both(t + 1, MemAccessKind::Store, 0x1038, 8, &mem));
            assert!(both(t + 2, MemAccessKind::Store, 0x1040, 1, &mem));
            assert!(both(t + 3, MemAccessKind::Load, 0x107f, 1, &mem));
            // A hit that crosses into the next line walks.
            assert!(!both(t + 4, MemAccessKind::Load, 0x103c, 8, &mem));
            // A hit on a line with a token bit walks (and raises).
            assert!(!both(t + 5, MemAccessKind::Load, 0x2008, 8, &mem));
            // Arms and disarms walk even on a token-free hit.
            assert!(!both(t + 6, MemAccessKind::Arm, 0x1000, 64, &mem));
            // Same LRU victims: overfill the 0x1040 line's set (64 kB,
            // 8-way L1-D: lines 8 kB apart share a set).
            let stride = 8 * 1024;
            for i in 1..=9u64 {
                assert!(!both(
                    t + 10 * i,
                    MemAccessKind::Load,
                    0x1040 + i * stride,
                    8,
                    &mem
                ));
            }
            for i in 0..=9u64 {
                let a = 0x1040 + i * stride;
                assert_eq!(fast.l1d().probe(a), walk.l1d().probe(a), "{a:#x}");
            }
            assert_eq!(fast.l1d().resident_lines(), walk.l1d().resident_lines());
        }
    }

    impl Hierarchy {
        /// Test hook: forcibly invalidate an L1-D line.
        fn l1d_invalidate_for_test(&mut self, addr: u64) {
            self.l1d.invalidate(addr);
        }
    }
}
