//! Deterministic, seeded fault injection for the REST simulator.
//!
//! REST's security argument assumes the token detector *always* fires on a
//! token-valued L1-D fill and that every LSQ hit on an armed token-bit
//! raises a precise exception.  This crate deliberately breaks those
//! assumptions, one seeded single-shot fault at a time, so the campaign
//! runner in `rest-bench` can measure how the stack fails: closed
//! (detected), open (missed detection / silent data corruption), or noisy
//! (spurious exceptions on clean programs).
//!
//! # Fault models
//!
//! | kind                | site (event counter)                      | effect |
//! |---------------------|-------------------------------------------|--------|
//! | `MetaBitClear`      | L1-D token-bit writes (arm) + fill detections | the bit is never set / dropped — fail-open |
//! | `MetaBitSet`        | clean L1-D fills                          | a spurious token bit appears — fail-closed |
//! | `TokenByteFlip`     | architectural arms                        | one bit of the stored token flips in guest memory |
//! | `ExceptionSuppress` | would-be REST violations                  | delivery for that slot is stuck off — fail-open |
//! | `ExceptionSpurious` | checked app loads/stores                  | a REST exception fires with no armed token |
//! | `EvictionMetaDrop`  | L1-D evictions carrying token metadata    | metadata lost on writeback; tokens decay in DRAM |
//!
//! # Determinism
//!
//! Each [`FaultSpec`] carries a seed and an arming window over the site's
//! event counter.  The single trigger index is
//! `window_start + splitmix64(seed ^ kind) % window_len`, so a given
//! (spec, program) pair always injects at exactly the same dynamic event
//! regardless of host scheduling or worker count.  All mutable state lives
//! in a [`FaultState`] behind a poison-proof [`FaultHandle`] shared by the
//! emulator (architectural effects) and the memory hierarchy (micro-
//! architectural trigger sites).

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// The six supported fault models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A token metadata bit in the L1-D is cleared (or never set): the
    /// detector saw the token but the per-slot bit was lost — fail-open.
    MetaBitClear,
    /// A token metadata bit is set on a clean fill: the detector fires on
    /// data that is not a token — fail-closed (spurious exception).
    MetaBitSet,
    /// One bit of a stored token flips in guest memory after an arm:
    /// the resident value no longer matches the token — missed detection.
    TokenByteFlip,
    /// A would-be REST exception is swallowed at the LSQ check and the
    /// slot's delivery path sticks off — fail-open.
    ExceptionSuppress,
    /// A REST exception is raised on an ordinary app access with no armed
    /// token anywhere near it — fail-closed.
    ExceptionSpurious,
    /// An L1-D eviction drops its token metadata; the tokens it guarded
    /// decay to zero bytes in DRAM — fail-open after writeback.
    EvictionMetaDrop,
}

impl FaultKind {
    /// Every model, in campaign/reporting order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::MetaBitClear,
        FaultKind::MetaBitSet,
        FaultKind::TokenByteFlip,
        FaultKind::ExceptionSuppress,
        FaultKind::ExceptionSpurious,
        FaultKind::EvictionMetaDrop,
    ];

    /// Stable kebab-case name used in JSON documents and audit entries.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MetaBitClear => "meta-bit-clear",
            FaultKind::MetaBitSet => "meta-bit-set",
            FaultKind::TokenByteFlip => "token-byte-flip",
            FaultKind::ExceptionSuppress => "exception-suppress",
            FaultKind::ExceptionSpurious => "exception-spurious",
            FaultKind::EvictionMetaDrop => "eviction-meta-drop",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultKind::MetaBitClear => 0x01,
            FaultKind::MetaBitSet => 0x02,
            FaultKind::TokenByteFlip => 0x03,
            FaultKind::ExceptionSuppress => 0x04,
            FaultKind::ExceptionSpurious => 0x05,
            FaultKind::EvictionMetaDrop => 0x06,
        }
    }

    /// The default arming window used by the `faults` campaign.  Windows
    /// target early dynamic events so the short `--test`-scale programs
    /// reliably reach the trigger: allocator redzones arm within the
    /// first few arm events, attacks trip their first would-be violation
    /// at event zero, and clean fills/checked accesses number in the
    /// thousands, so a slightly later index lands mid-run.
    pub fn default_spec(self, seed: u64) -> FaultSpec {
        let (start, len) = match self {
            FaultKind::MetaBitClear => (1, 1),
            FaultKind::MetaBitSet => (2, 1),
            FaultKind::TokenByteFlip => (1, 1),
            FaultKind::ExceptionSuppress => (0, 1),
            FaultKind::ExceptionSpurious => (64, 1),
            FaultKind::EvictionMetaDrop => (0, 1),
        };
        FaultSpec { kind: self, seed, window_start: start, window_len: len }
    }
}

/// splitmix64 — the standard 64-bit finaliser; cheap, deterministic, and
/// good enough to decorrelate (seed, kind) pairs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A single seeded, single-shot fault: which model, where in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: FaultKind,
    /// Seed mixed into the trigger index and into any derived choice
    /// (which token bit flips, which slot a spurious bit lands in).
    pub seed: u64,
    /// First qualifying site event (0-based) at which the fault may arm.
    pub window_start: u64,
    /// Width of the arming window; the trigger index is drawn
    /// deterministically from `[window_start, window_start + len)`.
    /// A zero length is treated as one.
    pub window_len: u64,
}

impl FaultSpec {
    /// The exact 0-based site-event index at which this fault fires.
    pub fn trigger_event(&self) -> u64 {
        let len = self.window_len.max(1);
        self.window_start + splitmix64(self.seed ^ self.kind.salt()) % len
    }

    /// Which bit (0..width*8) of the stored token a `TokenByteFlip`
    /// corrupts, for a token slot of `width_bytes` bytes.
    pub fn corrupt_bit_index(&self, width_bytes: u64) -> u64 {
        splitmix64(self.seed.wrapping_mul(0x9e3779b1).wrapping_add(7)) % (width_bytes * 8)
    }

    /// Which slot of a line a `MetaBitSet` fault lands in, for a line of
    /// `slots` token slots.
    pub fn spurious_slot_index(&self, slots: u64) -> u64 {
        splitmix64(self.seed.wrapping_add(13)) % slots.max(1)
    }
}

/// One applied (or observed) fault effect, for audit-log provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Trigger site, e.g. `"l1d-arm"`, `"l1d-fill"`, `"lsq-check"`,
    /// `"l1d-evict"`, `"arm"`, `"suppressed-hit"`, `"self-heal"`.
    pub site: &'static str,
    /// Guest address the effect touched (slot, line, or access address).
    pub addr: u64,
    /// Dynamic site-event index at which it happened.
    pub event: u64,
}

/// A deferred architectural consequence raised by the memory hierarchy
/// and applied by the emulator between instructions (the hierarchy has no
/// access to guest memory or the armed set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// An evicted L1-D line lost its token metadata: forget the armed
    /// slots under `mask` and decay their stored token bytes to zero.
    DropTokens {
        /// Line base address.
        line: u64,
        /// Per-slot token-bit mask that was dropped.
        mask: u8,
        /// Bytes per token slot (the token width).
        slot_bytes: u64,
    },
}

/// Summary of what a fault did during one run; serialised into the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    pub kind: &'static str,
    /// Total qualifying site events observed.
    pub site_events: u64,
    /// The 0-based event index the spec armed on.
    pub trigger_event: u64,
    /// Whether the run reached the trigger at all.
    pub triggered: bool,
    /// Number of recorded effects (injection + downstream hits/heals),
    /// counted cumulatively — draining [`FaultHandle::take_records`]
    /// into the audit log does not reset it.
    pub records: u64,
    /// Accesses that would have raised a REST violation but were let
    /// through because their slot's detection was suppressed.
    pub suppressed_hits: u64,
}

/// Mutable injection state shared between the emulator and the hierarchy.
#[derive(Debug)]
pub struct FaultState {
    spec: FaultSpec,
    trigger_event: u64,
    site_events: u64,
    triggered_at: Option<u64>,
    /// Slot addresses whose REST detection is currently lost (cleared
    /// metadata bit, suppressed delivery, decayed token).
    suppressed: HashSet<u64>,
    /// `(slot_addr, width)` pairs that spuriously look armed.
    spurious: Vec<(u64, u64)>,
    pending: Vec<MemEffect>,
    records: Vec<FaultRecord>,
    records_total: u64,
    suppressed_hits: u64,
}

impl FaultState {
    fn new(spec: FaultSpec) -> FaultState {
        FaultState {
            spec,
            trigger_event: spec.trigger_event(),
            site_events: 0,
            triggered_at: None,
            suppressed: HashSet::new(),
            spurious: Vec::new(),
            pending: Vec::new(),
            records: Vec::new(),
            records_total: 0,
            suppressed_hits: 0,
        }
    }

    /// Count one qualifying site event; true exactly once, at the
    /// trigger index.
    fn note_site(&mut self) -> bool {
        let idx = self.site_events;
        self.site_events += 1;
        if self.triggered_at.is_none() && idx == self.trigger_event {
            self.triggered_at = Some(idx);
            true
        } else {
            false
        }
    }

    fn record(&mut self, site: &'static str, addr: u64) {
        self.records_total += 1;
        // Bounded so a pathological run cannot grow without limit; the
        // interesting records (injection, first hits) come first.
        if self.records.len() < 64 {
            let event = self.site_events.saturating_sub(1);
            self.records.push(FaultRecord { site, addr, event });
        }
    }
}

/// Shared, poison-proof handle to a [`FaultState`].  Both the emulator
/// and the hierarchy clone this; a panicking simulation thread must not
/// poison injection state for the cell's post-mortem report.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    inner: Arc<Mutex<FaultState>>,
    kind: FaultKind,
}

impl FaultHandle {
    pub fn new(spec: FaultSpec) -> FaultHandle {
        FaultHandle {
            inner: Arc::new(Mutex::new(FaultState::new(spec))),
            kind: spec.kind,
        }
    }

    /// The fault model this handle injects (cheap; no lock).
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // ---- hierarchy-side trigger sites -------------------------------

    /// L1-D miss fill: `mask` is the detector's per-slot token-bit mask
    /// for the incoming line (`slot_bytes` bytes per slot).  Returns the
    /// possibly-faulted mask.  Also models self-healing: a re-detected
    /// slot whose bit was previously lost gets its detection back.
    pub fn filter_fill_mask(&self, line: u64, mask: u8, slot_bytes: u64) -> u8 {
        let mut st = self.lock();
        if mask != 0 {
            // Self-heal any suppressed slot the detector re-covers (the
            // token bytes are still in memory, so a refill re-detects).
            if st.spec.kind == FaultKind::MetaBitClear && !st.suppressed.is_empty() {
                let mut healed = Vec::new();
                for i in 0..8 {
                    if mask & (1 << i) != 0 {
                        let slot = line + i as u64 * slot_bytes;
                        if st.suppressed.remove(&slot) {
                            healed.push(slot);
                        }
                    }
                }
                for slot in healed {
                    st.record("self-heal", slot);
                }
            }
            if st.spec.kind == FaultKind::MetaBitClear && st.note_site() {
                let bit = mask.trailing_zeros() as u64;
                let slot = line + bit * slot_bytes;
                st.suppressed.insert(slot);
                st.record("l1d-fill", slot);
                return mask & !(1 << bit);
            }
        } else if st.spec.kind == FaultKind::MetaBitSet && st.note_site() {
            let slots = 64 / slot_bytes.max(1);
            let idx = st.spec.spurious_slot_index(slots);
            let slot = line + idx * slot_bytes;
            st.spurious.push((slot, slot_bytes));
            st.record("l1d-fill", slot);
            return 1 << idx;
        }
        mask
    }

    /// L1-D token-bit write driven by an arm (`decision.set_token_bit`).
    /// Returns true if the metadata write must be dropped.
    pub fn suppress_arm_bit(&self, slot_addr: u64) -> bool {
        let mut st = self.lock();
        if st.spec.kind == FaultKind::MetaBitClear && st.note_site() {
            st.suppressed.insert(slot_addr);
            st.record("l1d-arm", slot_addr);
            return true;
        }
        false
    }

    /// L1-D eviction carrying token metadata.  Returns true if the
    /// metadata is lost; the architectural decay is queued as a
    /// [`MemEffect`] for the emulator to apply.
    pub fn drop_eviction(&self, line: u64, mask: u8, slot_bytes: u64) -> bool {
        let mut st = self.lock();
        if st.spec.kind == FaultKind::EvictionMetaDrop && st.note_site() {
            st.pending.push(MemEffect::DropTokens { line, mask, slot_bytes });
            st.record("l1d-evict", line);
            return true;
        }
        false
    }

    // ---- emulator-side (architectural) sites ------------------------

    /// An architectural arm of `slot_addr` just completed.  Returns the
    /// bit index to flip in the stored token, if this arm is the trigger.
    pub fn arm_event(&self, slot_addr: u64, width_bytes: u64) -> Option<u64> {
        let mut st = self.lock();
        if st.spec.kind == FaultKind::TokenByteFlip && st.note_site() {
            st.suppressed.insert(slot_addr);
            st.record("arm", slot_addr);
            return Some(st.spec.corrupt_bit_index(width_bytes));
        }
        None
    }

    /// A checked app access is about to be compared against the armed
    /// set.  Returns a spurious "armed" slot address if an exception must
    /// fire here despite no token being present.
    pub fn spurious_check(&self, addr: u64, size: u64) -> Option<u64> {
        let mut st = self.lock();
        match st.spec.kind {
            FaultKind::MetaBitSet => {
                let hit = st
                    .spurious
                    .iter()
                    .find(|(slot, w)| addr < slot + w && slot < &(addr + size))
                    .map(|&(slot, _)| slot);
                if let Some(slot) = hit {
                    st.record("lsq-spurious", slot);
                }
                hit
            }
            FaultKind::ExceptionSpurious => {
                if st.note_site() {
                    let slot = addr & !7;
                    st.record("lsq-check", slot);
                    Some(slot)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// A real REST violation on `slot` is about to be raised.  Returns
    /// true if detection for this access is lost (suppressed slot, or an
    /// `ExceptionSuppress` trigger sticking the slot's delivery off).
    pub fn suppress_detection(&self, slot: u64) -> bool {
        let mut st = self.lock();
        if st.suppressed.contains(&slot) {
            st.suppressed_hits += 1;
            if st.suppressed_hits <= 4 {
                st.record("suppressed-hit", slot);
            }
            return true;
        }
        if st.spec.kind == FaultKind::ExceptionSuppress && st.note_site() {
            st.suppressed.insert(slot);
            st.suppressed_hits += 1;
            st.record("lsq-suppress", slot);
            return true;
        }
        false
    }

    /// Drain deferred architectural effects queued by the hierarchy.
    pub fn take_effects(&self) -> Vec<MemEffect> {
        std::mem::take(&mut self.lock().pending)
    }

    /// Drain provenance records (for the audit log).
    pub fn take_records(&self) -> Vec<FaultRecord> {
        std::mem::take(&mut self.lock().records)
    }

    /// Snapshot the run-level summary.
    pub fn report(&self) -> FaultReport {
        let st = self.lock();
        FaultReport {
            kind: st.spec.kind.name(),
            site_events: st.site_events,
            trigger_event: st.trigger_event,
            triggered: st.triggered_at.is_some(),
            records: st.records_total,
            suppressed_hits: st.suppressed_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_is_deterministic_and_inside_window() {
        for kind in FaultKind::ALL {
            for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
                let spec = FaultSpec { kind, seed, window_start: 10, window_len: 4 };
                let t = spec.trigger_event();
                assert_eq!(t, spec.trigger_event(), "trigger must be stable");
                assert!((10..14).contains(&t), "trigger {t} outside window");
            }
        }
    }

    #[test]
    fn zero_length_window_means_exactly_start() {
        let spec = FaultSpec {
            kind: FaultKind::ExceptionSuppress,
            seed: 42,
            window_start: 7,
            window_len: 0,
        };
        assert_eq!(spec.trigger_event(), 7);
    }

    #[test]
    fn note_site_fires_exactly_once() {
        let h = FaultHandle::new(FaultSpec {
            kind: FaultKind::ExceptionSuppress,
            seed: 3,
            window_start: 2,
            window_len: 1,
        });
        // Events 0 and 1: no suppression beyond the armed set (empty).
        assert!(!h.suppress_detection(0x100));
        assert!(!h.suppress_detection(0x200));
        // Event 2 is the trigger: detection sticks off for this slot.
        assert!(h.suppress_detection(0x300));
        // Later events do not re-trigger, but the stuck slot stays off.
        assert!(!h.suppress_detection(0x400));
        assert!(h.suppress_detection(0x300));
        let rep = h.report();
        assert!(rep.triggered);
        assert_eq!(rep.trigger_event, 2);
        assert_eq!(rep.suppressed_hits, 2);
    }

    #[test]
    fn meta_bit_clear_drops_one_bit_and_self_heals() {
        let h = FaultHandle::new(FaultSpec {
            kind: FaultKind::MetaBitClear,
            seed: 9,
            window_start: 0,
            window_len: 1,
        });
        // Trigger on the first fill detection: bit 1 (lowest set) drops.
        let mask = h.filter_fill_mask(0x1000, 0b0110, 8);
        assert_eq!(mask, 0b0100);
        let slot = 0x1000 + 8; // bit index 1, 8-byte slots
        assert!(h.suppress_detection(slot), "cleared slot must be fail-open");
        // A refill that re-detects the slot heals it.
        assert_eq!(h.filter_fill_mask(0x1000, 0b0010, 8), 0b0010);
        assert!(!h.suppress_detection(slot), "healed slot detects again");
    }

    #[test]
    fn meta_bit_set_plants_a_spurious_slot() {
        let spec = FaultSpec {
            kind: FaultKind::MetaBitSet,
            seed: 5,
            window_start: 0,
            window_len: 1,
        };
        let h = FaultHandle::new(spec);
        let mask = h.filter_fill_mask(0x2000, 0, 8);
        assert_eq!(mask.count_ones(), 1, "exactly one spurious bit");
        let idx = spec.spurious_slot_index(8);
        assert_eq!(mask, 1 << idx);
        let slot = 0x2000 + idx * 8;
        assert_eq!(h.spurious_check(slot, 8), Some(slot));
        assert_eq!(h.spurious_check(slot + 64, 8), None);
    }

    #[test]
    fn eviction_drop_queues_a_mem_effect() {
        let h = FaultHandle::new(FaultSpec {
            kind: FaultKind::EvictionMetaDrop,
            seed: 1,
            window_start: 0,
            window_len: 1,
        });
        assert!(h.drop_eviction(0x3000, 0b1001, 8));
        assert!(!h.drop_eviction(0x3040, 0b0001, 8), "single-shot");
        assert_eq!(
            h.take_effects(),
            vec![MemEffect::DropTokens { line: 0x3000, mask: 0b1001, slot_bytes: 8 }]
        );
        assert!(h.take_effects().is_empty(), "effects drain once");
    }

    #[test]
    fn token_byte_flip_reports_bit_in_range() {
        let spec = FaultSpec {
            kind: FaultKind::TokenByteFlip,
            seed: 77,
            window_start: 0,
            window_len: 1,
        };
        let h = FaultHandle::new(spec);
        let bit = h.arm_event(0x4000, 8).expect("first arm triggers");
        assert!(bit < 64);
        assert_eq!(bit, spec.corrupt_bit_index(8));
        assert!(h.arm_event(0x4008, 8).is_none(), "single-shot");
        assert!(h.suppress_detection(0x4000), "corrupted slot is fail-open");
    }

    #[test]
    fn poisoned_lock_recovers() {
        let h = FaultHandle::new(FaultKind::MetaBitClear.default_spec(0));
        let h2 = h.clone();
        let _ = std::thread::spawn(move || {
            let _guard = h2.inner.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        // The handle must keep working after a panicking holder.
        let rep = h.report();
        assert_eq!(rep.kind, "meta-bit-clear");
    }

    #[test]
    fn default_specs_cover_all_kinds_with_stable_names() {
        let names: Vec<_> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "meta-bit-clear",
                "meta-bit-set",
                "token-byte-flip",
                "exception-suppress",
                "exception-spurious",
                "eviction-meta-drop"
            ]
        );
        for kind in FaultKind::ALL {
            let spec = kind.default_spec(0x5eed);
            assert_eq!(spec.kind, kind);
            assert!(spec.window_len >= 1);
        }
    }
}
