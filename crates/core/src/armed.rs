use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::exception::RestExceptionKind;
use crate::token::TokenWidth;

/// Multiplicative hasher for armed-slot addresses. The membership probe
/// in [`ArmedSet::first_overlap`] sits on the per-access hot path of
/// every REST simulation, where SipHash's per-lookup cost dominates;
/// slot addresses are token-width aligned and low-entropy, and a single
/// Fibonacci multiply spreads them well. [`ArmedSet::iter`] order is
/// explicitly unspecified and never reaches deterministic artifacts, so
/// the hash function cannot leak into results.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("slot addresses hash via write_u64");
    }

    fn write_u64(&mut self, slot: u64) {
        self.0 = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Armed-slot membership set with the fast multiplicative hasher.
type SlotSet = HashSet<u64, BuildHasherDefault<SlotHasher>>;

/// The architectural set of armed (token-holding) locations.
///
/// The hardware's ground truth is content-based — a location is armed iff
/// it holds the token value — but architecturally the two are equivalent
/// because the token is secret and 2¹²⁸⁺ bits of entropy make accidental
/// collisions impossible (§V-B). The functional emulator uses this set to
/// decide program-visible REST exceptions, while the cache model performs
/// the genuine content comparison; the two are cross-checked in tests.
///
/// # Example
///
/// ```
/// use rest_core::{ArmedSet, TokenWidth};
///
/// let mut armed = ArmedSet::new(TokenWidth::B64);
/// armed.arm(0x1000).unwrap();
/// assert!(armed.overlaps(0x1008, 8));
/// assert!(!armed.overlaps(0x0fc0, 64));
/// armed.disarm(0x1000).unwrap();
/// assert!(!armed.overlaps(0x1000, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ArmedSet {
    width: TokenWidth,
    /// Base addresses of armed slots (each `width.bytes()` long).
    slots: SlotSet,
    arms: u64,
    disarms: u64,
    /// When true, every arm's slot address is appended to `recent` so a
    /// fault injector can observe architectural arms (including the
    /// allocator's redzone arms, which never pass through `Inst::Arm`).
    recording: bool,
    recent: Vec<u64>,
}

impl ArmedSet {
    /// Creates an empty set for tokens of `width`.
    pub fn new(width: TokenWidth) -> ArmedSet {
        ArmedSet {
            width,
            slots: SlotSet::default(),
            arms: 0,
            disarms: 0,
            recording: false,
            recent: Vec::new(),
        }
    }

    /// Token width in force.
    pub fn width(&self) -> TokenWidth {
        self.width
    }

    /// Arms the slot at `addr`.
    ///
    /// # Errors
    ///
    /// [`RestExceptionKind::MisalignedArm`] if `addr` is not aligned to
    /// the token width. Re-arming an armed slot is idempotent (the store
    /// queue sees two arm entries, but architecturally the location
    /// simply holds the token).
    pub fn arm(&mut self, addr: u64) -> Result<(), RestExceptionKind> {
        if !self.width.is_aligned(addr) {
            return Err(RestExceptionKind::MisalignedArm);
        }
        self.slots.insert(addr);
        self.arms += 1;
        if self.recording {
            self.recent.push(addr);
        }
        Ok(())
    }

    /// Disarms the slot at `addr`.
    ///
    /// # Errors
    ///
    /// [`RestExceptionKind::MisalignedDisarm`] on misalignment;
    /// [`RestExceptionKind::DisarmUnarmed`] if the slot does not hold a
    /// token — the rule that defeats brute-force disarm sweeps (§V-C).
    pub fn disarm(&mut self, addr: u64) -> Result<(), RestExceptionKind> {
        if !self.width.is_aligned(addr) {
            return Err(RestExceptionKind::MisalignedDisarm);
        }
        if !self.slots.remove(&addr) {
            return Err(RestExceptionKind::DisarmUnarmed);
        }
        self.disarms += 1;
        Ok(())
    }

    /// Whether the slot at exactly `addr` is armed.
    #[inline]
    pub fn is_armed(&self, addr: u64) -> bool {
        self.slots.contains(&addr)
    }

    /// Whether `[addr, addr+size)` overlaps any armed slot. This is the
    /// architectural counterpart of "the access touches a line slot whose
    /// token bit is set".
    #[inline]
    pub fn overlaps(&self, addr: u64, size: u64) -> bool {
        self.first_overlap(addr, size).is_some()
    }

    /// Base address of the first armed slot overlapped by
    /// `[addr, addr+size)`, if any.
    #[inline]
    pub fn first_overlap(&self, addr: u64, size: u64) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let w = self.width.bytes();
        let first_slot = addr / w * w;
        // Inclusive end, and `last - slot` rather than `slot + w`: an
        // access ending at the top of the address space does not
        // overflow.
        let last = addr.saturating_add(size - 1);
        let mut slot = first_slot;
        loop {
            if self.slots.contains(&slot) {
                return Some(slot);
            }
            if last - slot < w {
                return None;
            }
            slot += w;
        }
    }

    /// Number of currently armed slots.
    pub fn armed_count(&self) -> usize {
        self.slots.len()
    }

    /// Total arm operations performed.
    pub fn total_arms(&self) -> u64 {
        self.arms
    }

    /// Total successful disarm operations performed.
    pub fn total_disarms(&self) -> u64 {
        self.disarms
    }

    /// Iterates over armed slot base addresses (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied()
    }

    /// Enables (or disables) recording of arm slot addresses for fault
    /// injection. Off by default; costs nothing when disabled.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.recent.clear();
        }
    }

    /// Drains the slot addresses armed since the last call, in program
    /// order. Empty unless recording is enabled.
    pub fn take_recent_arms(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.recent)
    }

    /// Silently drops a slot from the set without counting a disarm and
    /// without the `DisarmUnarmed` check. This models *hardware* loss of
    /// the token (a corrupted stored token no longer matches, a dropped
    /// eviction decays it) — not an architectural disarm, so the paper's
    /// disarm discipline and the arm/disarm counters are unaffected.
    pub fn forget(&mut self, addr: u64) -> bool {
        self.slots.remove(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_requires_alignment() {
        let mut a = ArmedSet::new(TokenWidth::B64);
        assert_eq!(a.arm(0x1001), Err(RestExceptionKind::MisalignedArm));
        assert_eq!(a.arm(0x1040), Ok(()));
        let mut a16 = ArmedSet::new(TokenWidth::B16);
        assert_eq!(a16.arm(0x1010), Ok(()));
        assert_eq!(a16.arm(0x1008), Err(RestExceptionKind::MisalignedArm));
    }

    #[test]
    fn disarm_of_unarmed_fails() {
        let mut a = ArmedSet::new(TokenWidth::B64);
        assert_eq!(a.disarm(0x1000), Err(RestExceptionKind::DisarmUnarmed));
        a.arm(0x1000).unwrap();
        assert_eq!(a.disarm(0x1000), Ok(()));
        assert_eq!(a.disarm(0x1000), Err(RestExceptionKind::DisarmUnarmed));
        assert_eq!(a.disarm(0x1001), Err(RestExceptionKind::MisalignedDisarm));
    }

    #[test]
    fn overlap_detection_across_slot_boundaries() {
        let mut a = ArmedSet::new(TokenWidth::B64);
        a.arm(0x1040).unwrap();
        assert!(a.overlaps(0x1040, 1));
        assert!(a.overlaps(0x107f, 1));
        assert!(!a.overlaps(0x1080, 8));
        assert!(!a.overlaps(0x103f, 1));
        // Straddling access.
        assert!(a.overlaps(0x1038, 16));
        // Wide range spanning far past the slot.
        assert!(a.overlaps(0x1000, 0x100));
        assert_eq!(a.first_overlap(0x1000, 0x100), Some(0x1040));
        // Zero-size never overlaps.
        assert!(!a.overlaps(0x1040, 0));
    }

    #[test]
    fn rearm_is_idempotent_and_counted() {
        let mut a = ArmedSet::new(TokenWidth::B32);
        a.arm(0x2000).unwrap();
        a.arm(0x2000).unwrap();
        assert_eq!(a.armed_count(), 1);
        assert_eq!(a.total_arms(), 2);
    }

    #[test]
    fn recording_captures_arms_in_order_and_drains() {
        let mut a = ArmedSet::new(TokenWidth::B64);
        a.arm(0x1000).unwrap();
        assert!(a.take_recent_arms().is_empty(), "off by default");
        a.set_recording(true);
        a.arm(0x1040).unwrap();
        a.arm(0x1080).unwrap();
        assert_eq!(a.take_recent_arms(), vec![0x1040, 0x1080]);
        assert!(a.take_recent_arms().is_empty(), "drained");
        a.set_recording(false);
        a.arm(0x10c0).unwrap();
        assert!(a.take_recent_arms().is_empty());
    }

    #[test]
    fn forget_drops_silently_without_counting_a_disarm() {
        let mut a = ArmedSet::new(TokenWidth::B64);
        a.arm(0x3000).unwrap();
        assert!(a.forget(0x3000));
        assert!(!a.forget(0x3000), "already gone");
        assert!(!a.overlaps(0x3000, 64));
        assert_eq!(a.total_disarms(), 0, "not an architectural disarm");
        // A later architectural disarm of the forgotten slot now fails,
        // exactly as hardware would behave once the token decayed.
        assert_eq!(a.disarm(0x3000), Err(RestExceptionKind::DisarmUnarmed));
    }
}
