//! The store window the LSQ searches: the in-flight stores a younger
//! load may forward from (or must wait for), and that a younger store,
//! arm or disarm is checked against under Table I's LSQ rules.
//!
//! The window is a fixed power-of-two ring of at most `sq_entries`
//! stores, oldest first. Most searches match nothing: a load usually
//! touches no line any in-flight store touches. So the ring also counts,
//! per line bucket, the stores touching a line of that bucket, and a
//! search walks the ring only when one of its own line buckets is
//! occupied. The walk itself is the youngest-first linear scan the
//! filter stands in for, so both decide identically.

use rest_core::RestExceptionKind;
use rest_isa::{MemAccessKind, OpKind};

/// log2 of the filter's line granule: 64 bytes, the Table II line size.
const LINE_SHIFT: u32 = 6;

/// Line buckets of the filter (a power of two): line `l` counts in
/// bucket `l % BUCKETS`, so lines 256 apart share one.
const BUCKETS: usize = 256;

/// Last byte of the access `[addr, addr + size)`. Inclusive, so an
/// access ending at the top of the address space has no overflowing
/// end; one running past the top is cut off there, and a zero-size
/// access covers its first byte.
pub(crate) fn last_byte(addr: u64, size: u64) -> u64 {
    addr.saturating_add(size.max(1) - 1)
}

/// An in-flight (not yet drained) store tracked for memory
/// disambiguation and the REST LSQ rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreRec {
    pub addr: u64,
    /// Last byte written (inclusive, see [`last_byte`]).
    pub last: u64,
    pub kind: MemAccessKind,
    /// Cycle its address/data were ready (forwardable from here).
    pub exec_done: u64,
    /// Cycle its write completed at the L1-D (leaves the SQ here).
    pub drain_done: u64,
}

impl StoreRec {
    /// Whether the store writes any byte of `[addr, last]`.
    pub fn overlaps(&self, addr: u64, last: u64) -> bool {
        self.addr <= last && addr <= self.last
    }

    /// Whether the store writes every byte of `[addr, last]`.
    pub fn contains(&self, addr: u64, last: u64) -> bool {
        self.addr <= addr && last <= self.last
    }
}

/// Calls `f` once for each distinct line bucket of the bytes `[addr,
/// last]`.
#[inline]
fn for_each_bucket(addr: u64, last: u64, mut f: impl FnMut(usize)) {
    let first = addr >> LINE_SHIFT;
    let lines = (last >> LINE_SHIFT) - first;
    for line in first..=first + lines.min(BUCKETS as u64 - 1) {
        f(line as usize & (BUCKETS - 1));
    }
}

/// The in-flight stores, oldest first, with a per-line-bucket filter.
#[derive(Debug, Clone)]
pub(crate) struct StoreWindow {
    /// Ring storage; its length is a power of two ≥ `capacity`.
    slots: Box<[StoreRec]>,
    /// Slot of the oldest store.
    head: usize,
    len: usize,
    /// Most stores held (`sq_entries`); pushing beyond it drops the
    /// oldest.
    capacity: usize,
    /// Per line bucket, the stores in the window touching a line of it.
    /// A store counts at most once per bucket, so no count exceeds
    /// `capacity`. Boxed: inline, the 2 KiB grew every `Pipeline` and
    /// measurably raised the peak memory of runs of many tiny
    /// simulations.
    lines: Box<[usize; BUCKETS]>,
    /// Arms and disarms in the window (the only kinds a Table I LSQ
    /// rule can match).
    arms: usize,
    disarms: usize,
}

impl StoreWindow {
    /// An empty window holding at most `capacity` stores.
    pub fn new(capacity: usize) -> StoreWindow {
        let empty = StoreRec {
            addr: 0,
            last: 0,
            kind: MemAccessKind::Store,
            exec_done: 0,
            drain_done: 0,
        };
        StoreWindow {
            slots: vec![empty; capacity.next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
            capacity,
            lines: Box::new([0; BUCKETS]),
            arms: 0,
            disarms: 0,
        }
    }

    /// The `i`-th oldest store.
    fn get(&self, i: usize) -> &StoreRec {
        &self.slots[(self.head + i) & (self.slots.len() - 1)]
    }

    /// Adds (`add`) or removes `rec`'s contribution to the filter and
    /// the kind counts.
    fn note(&mut self, rec: &StoreRec, add: bool) {
        let lines = &mut self.lines;
        for_each_bucket(rec.addr, rec.last, |b| {
            if add {
                lines[b] += 1;
            } else {
                lines[b] -= 1;
            }
        });
        let count = match rec.kind {
            MemAccessKind::Arm => &mut self.arms,
            MemAccessKind::Disarm => &mut self.disarms,
            MemAccessKind::Store | MemAccessKind::Load => return,
        };
        if add {
            *count += 1;
        } else {
            *count -= 1;
        }
    }

    /// Appends the youngest store, dropping the oldest beyond capacity.
    pub fn push(&mut self, rec: StoreRec) {
        if self.capacity == 0 {
            return;
        }
        if self.len == self.capacity {
            self.pop_front();
        }
        let slot = (self.head + self.len) & (self.slots.len() - 1);
        self.slots[slot] = rec;
        self.len += 1;
        self.note(&rec, true);
    }

    fn pop_front(&mut self) {
        let rec = self.slots[self.head];
        self.head = (self.head + 1) & (self.slots.len() - 1);
        self.len -= 1;
        self.note(&rec, false);
    }

    /// Drops the oldest stores while they drained by `horizon`.
    #[inline(always)]
    pub fn prune(&mut self, horizon: u64) {
        while self.len > 0 && self.slots[self.head].drain_done <= horizon {
            self.pop_front();
        }
    }

    /// Whether any store in the window touches a line bucket of `[addr,
    /// last]`.
    fn occupied(&self, addr: u64, last: u64) -> bool {
        let mut hit = false;
        for_each_bucket(addr, last, |b| hit |= self.lines[b] != 0);
        hit
    }

    /// The youngest store still in flight after cycle `after`
    /// (`drain_done > after`) that writes a byte of `[addr, last]`.
    pub fn youngest_match(&self, addr: u64, last: u64, after: u64) -> Option<&StoreRec> {
        if !self.occupied(addr, last) {
            return None;
        }
        (0..self.len)
            .rev()
            .map(|i| self.get(i))
            .find(|s| s.drain_done > after && s.overlaps(addr, last))
    }

    /// Table I's LSQ rule for a store-like micro-op of `kind` entering
    /// the store queue at cycle `at`: a store whose youngest in-flight
    /// match is an arm, or a disarm whose youngest match is a disarm,
    /// raises. An arm never does.
    pub fn lsq_rule(
        &self,
        kind: OpKind,
        addr: u64,
        last: u64,
        at: u64,
    ) -> Option<RestExceptionKind> {
        let (matches, raised) = match kind {
            OpKind::Store if self.arms > 0 => {
                (MemAccessKind::Arm, RestExceptionKind::StoreHitInflightArm)
            }
            OpKind::Disarm if self.disarms > 0 => (
                MemAccessKind::Disarm,
                RestExceptionKind::DoubleInflightDisarm,
            ),
            _ => return None,
        };
        (self.youngest_match(addr, last, at)?.kind == matches).then_some(raised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The reference: the last `capacity` stores, never pruned, scanned
    /// youngest first without a filter or kind counts.
    struct Linear {
        stores: VecDeque<StoreRec>,
        capacity: usize,
    }

    impl Linear {
        fn push(&mut self, rec: StoreRec) {
            self.stores.push_back(rec);
            while self.stores.len() > self.capacity {
                self.stores.pop_front();
            }
        }

        fn youngest_match(&self, addr: u64, last: u64, after: u64) -> Option<&StoreRec> {
            self.stores
                .iter()
                .rev()
                .find(|s| s.drain_done > after && s.overlaps(addr, last))
        }

        fn lsq_rule(
            &self,
            kind: OpKind,
            addr: u64,
            last: u64,
            at: u64,
        ) -> Option<RestExceptionKind> {
            match (kind, self.youngest_match(addr, last, at)?.kind) {
                (OpKind::Store, MemAccessKind::Arm) => Some(RestExceptionKind::StoreHitInflightArm),
                (OpKind::Disarm, MemAccessKind::Disarm) => {
                    Some(RestExceptionKind::DoubleInflightDisarm)
                }
                _ => None,
            }
        }
    }

    /// What the pipeline does with a search result.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Decision {
        None,
        Forward,
        PartialStall,
        ArmException,
        LsqRule(RestExceptionKind),
    }

    fn load_decision(m: Option<&StoreRec>, addr: u64, last: u64) -> Decision {
        match m {
            None => Decision::None,
            Some(s) if matches!(s.kind, MemAccessKind::Arm | MemAccessKind::Disarm) => {
                Decision::ArmException
            }
            Some(s) if s.contains(addr, last) => Decision::Forward,
            Some(_) => Decision::PartialStall,
        }
    }

    /// An access address: clustered in a few lines, on lines 256 apart
    /// (one bucket), straddling a line, or at the top of the address
    /// space.
    fn address(rng: &mut StdRng) -> u64 {
        let base = 0x4000_0000u64;
        match rng.gen_range(0..4u32) {
            0 => base + rng.gen_range(0..4 * 64u64),
            1 => base + rng.gen_range(0..3u64) * 256 * 64 + rng.gen_range(0..64u64),
            2 => base + rng.gen_range(0..8u64) * 64 + 64 - rng.gen_range(1..16u64),
            _ => u64::MAX - rng.gen_range(0..96u64),
        }
    }

    #[test]
    fn filtered_window_decides_like_a_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0x5701E);
        let mut seen = std::collections::HashMap::new();
        let mut queries = 0;
        for capacity in [0, 4, 32] {
            let mut window = StoreWindow::new(capacity);
            let mut linear = Linear {
                stores: VecDeque::new(),
                capacity,
            };
            let mut now = 0u64;
            for _ in 0..50_000 {
                now += rng.gen_range(0..3u64);
                // The pipeline prunes to a horizon no later search
                // reaches back past.
                window.prune(now);
                let addr = address(&mut rng);
                let last = last_byte(addr, rng.gen_range(1..=64u64));
                let after = now + rng.gen_range(0..4u64);
                let kind = match rng.gen_range(0..10u32) {
                    0..=3 => OpKind::Load,
                    4..=6 => OpKind::Store,
                    7 => OpKind::Arm,
                    _ => OpKind::Disarm,
                };
                queries += 1;
                let decision = if kind == OpKind::Load {
                    let got = window.youngest_match(addr, last, after);
                    let want = linear.youngest_match(addr, last, after);
                    assert_eq!(got, want, "load [{addr:#x}, {last:#x}] after {after}");
                    load_decision(got, addr, last)
                } else {
                    let got = window.lsq_rule(kind, addr, last, after);
                    let want = linear.lsq_rule(kind, addr, last, after);
                    assert_eq!(got, want, "{kind:?} [{addr:#x}, {last:#x}] at {after}");
                    got.map_or(Decision::None, Decision::LsqRule)
                };
                *seen.entry(decision).or_insert(0u32) += 1;
                if kind != OpKind::Load {
                    let rec = StoreRec {
                        addr,
                        last,
                        kind: match kind {
                            OpKind::Arm => MemAccessKind::Arm,
                            OpKind::Disarm => MemAccessKind::Disarm,
                            _ => MemAccessKind::Store,
                        },
                        exec_done: after + 1,
                        drain_done: after + rng.gen_range(1..40u64),
                    };
                    window.push(rec);
                    linear.push(rec);
                }
            }
        }
        assert!(queries >= 100_000);
        for d in [
            Decision::None,
            Decision::Forward,
            Decision::PartialStall,
            Decision::ArmException,
            Decision::LsqRule(RestExceptionKind::StoreHitInflightArm),
            Decision::LsqRule(RestExceptionKind::DoubleInflightDisarm),
        ] {
            assert!(
                seen.get(&d).copied().unwrap_or(0) >= 100,
                "{d:?} barely covered: {seen:?}"
            );
        }
    }

    #[test]
    fn accesses_ending_at_the_top_of_the_address_space_match() {
        let mut window = StoreWindow::new(4);
        let top = u64::MAX - 7;
        window.push(StoreRec {
            addr: top,
            last: last_byte(top, 8),
            kind: MemAccessKind::Store,
            exec_done: 1,
            drain_done: 10,
        });
        let s = window
            .youngest_match(top, last_byte(top, 8), 0)
            .expect("match");
        assert!(s.contains(top, u64::MAX));
        assert!(window
            .youngest_match(top - 8, last_byte(top - 8, 8), 0)
            .is_none());
    }
}
