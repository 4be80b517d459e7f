use crate::blocks::BlockTable;
use crate::config::CacheConfig;

/// One way (line frame) of a set: 16 bytes, so the paper's 2 MB L2 has
/// 512 KiB of ways once every set has been filled.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    /// LRU stamp: the cache's use counter at the way's last touch. Only
    /// the order of stamps within a set matters (see [`Cache::bump`]).
    stamp: u32,
    valid: bool,
    dirty: bool,
    /// REST token bits for the slots of this line (bit *i* = slot *i*).
    /// Only meaningful in the L1-D; other levels keep it zero.
    token_mask: u8,
}

/// A line evicted by a fill or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
    /// Token bits the line carried. Non-zero means the outgoing packet
    /// must have the token value materialised into the armed slots
    /// (Table I, "Eviction" row) — arm never wrote the value into the
    /// data array.
    pub token_mask: u8,
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement and per-line REST token bits.
///
/// Only tags and metadata are stored; data lives in the functional guest
/// memory. This is the standard timing/functional split and is what lets
/// the token detector compare genuine line contents at fill time.
///
/// Each set is one block of `assoc` ways in a [`BlockTable`], allocated
/// on the set's first fill: a set that has never been filled reads as
/// the table's shared all-invalid block, so building a cache costs one
/// index entry per set and a run pays for the sets it fills. Addresses
/// split into line offset, set index and tag by shift and mask:
/// [`CacheConfig::sets`] admits only power-of-two line sizes and set
/// counts.
///
/// # Example
///
/// ```
/// use rest_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::isca2018_l1d(), "L1D");
/// assert!(c.lookup(0x1000, false).is_none()); // cold miss
/// c.fill(0x1000, false, 0);
/// assert_eq!(c.lookup(0x1000, false), Some(0)); // hits, no token bits
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// One block of `assoc` ways per set.
    ways: BlockTable<Way>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    next_stamp: u32,
    name: &'static str,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig, name: &'static str) -> Cache {
        let sets = cfg.sets();
        Cache {
            ways: BlockTable::new(sets, cfg.assoc, Way::default()),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            cfg,
            next_stamp: 0,
            name,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Human-readable name (e.g. `"L1D"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & ((1 << self.set_shift) - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_shift
    }

    /// Slot index of `addr` within its line for `slot_bytes`-wide slots.
    fn slot(&self, addr: u64, slot_bytes: u64) -> u64 {
        (addr & (self.cfg.line_bytes - 1)) / slot_bytes
    }

    /// Next LRU stamp. When the 32-bit counter runs out, every set's
    /// valid ways are renumbered `1..=assoc` in stamp order and the
    /// counter restarts above them: the LRU way of each set stays the
    /// LRU way, so no victim choice changes. Sets never filled hold no
    /// valid way and are skipped.
    #[inline(always)]
    fn bump(&mut self) -> u32 {
        if self.next_stamp == u32::MAX {
            self.renumber_stamps();
        }
        self.next_stamp += 1;
        self.next_stamp
    }

    /// [`Cache::bump`]'s wraparound: renumbers every set's valid ways
    /// `1..=assoc` in stamp order.
    #[cold]
    fn renumber_stamps(&mut self) {
        for set in self.ways.touched_mut() {
            let mut valid: Vec<&mut Way> = set.iter_mut().filter(|w| w.valid).collect();
            valid.sort_unstable_by_key(|w| w.stamp);
            for (rank, w) in (1..).zip(valid) {
                w.stamp = rank;
            }
        }
        self.next_stamp = self.cfg.assoc as u32;
    }

    /// `addr`'s resident line.
    fn find(&self, addr: u64) -> Option<&Way> {
        let tag = self.tag(addr);
        self.ways
            .get(self.set_index(addr) as usize)
            .iter()
            .find(|w| w.valid && w.tag == tag)
    }

    /// `addr`'s resident line, for writing.
    fn find_mut(&mut self, addr: u64) -> Option<&mut Way> {
        let tag = self.tag(addr);
        let set = self.set_index(addr) as usize;
        self.ways
            .get_mut(set)?
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
    }

    fn resident(&mut self, addr: u64, op: &str) -> &mut Way {
        let name = self.name;
        match self.find_mut(addr) {
            Some(w) => w,
            // Invariant: the hierarchy fills a line before touching its state.
            None => panic!("{name}: {op} on absent line {addr:#x}"),
        }
    }

    /// Looks up `addr`, updating LRU state. Marks the line dirty when
    /// `is_write`. Returns the line's token bits on a hit, `None` on a
    /// miss.
    #[inline]
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> Option<u8> {
        let stamp = self.bump();
        let w = self.find_mut(addr)?;
        w.stamp = stamp;
        w.dirty |= is_write;
        Some(w.token_mask)
    }

    /// Whether `addr`'s line is resident, without touching LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Token bits of `addr`'s line, or `None` if not resident.
    pub fn token_mask(&self, addr: u64) -> Option<u8> {
        self.find(addr).map(|w| w.token_mask)
    }

    /// Whether the token bit covering `addr` (given `slot_bytes`-wide
    /// slots) is set. `false` when the line is absent.
    pub fn token_bit_covering(&self, addr: u64, slot_bytes: u64) -> bool {
        match self.find(addr) {
            Some(w) => w.token_mask & (1u8 << self.slot(addr, slot_bytes)) != 0,
            None => false,
        }
    }

    /// Whether any byte of `[addr, addr+size)` lies in an armed slot of a
    /// resident line. Walks every slot the access overlaps, so wide
    /// accesses that straddle a slot — or a cache-line — boundary check
    /// each covered slot in whichever line holds it.
    pub fn access_touches_token(&self, addr: u64, size: u64, slot_bytes: u64) -> bool {
        // Inclusive end, stepping only while another slot starts at or
        // before it: no overflow at the top of the address space.
        let last = addr.saturating_add(size.max(1) - 1);
        let mut slot = addr - addr % slot_bytes;
        loop {
            if self.token_bit_covering(slot, slot_bytes) {
                return true;
            }
            if last - slot < slot_bytes {
                return false;
            }
            slot += slot_bytes;
        }
    }

    /// ORs `mask` into the token bits of `addr`'s line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (callers fill first).
    pub fn set_token_bits(&mut self, addr: u64, mask: u8) {
        self.resident(addr, "set_token_bits").token_mask |= mask;
    }

    /// Clears the token bit for the slot containing `addr` and marks the
    /// line dirty (the disarm zeroes the slot in the data array).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn clear_token_bit(&mut self, addr: u64, slot_bytes: u64) {
        let slot = self.slot(addr, slot_bytes);
        let w = self.resident(addr, "clear_token_bit");
        w.token_mask &= !(1u8 << slot);
        w.dirty = true;
    }

    /// Marks `addr`'s resident line dirty (e.g. the arm's lazy value
    /// write obligation).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_dirty(&mut self, addr: u64) {
        self.resident(addr, "mark_dirty").dirty = true;
    }

    /// Installs `addr`'s line (write-allocate fill), evicting the LRU way
    /// if the set is full; the set's ways are allocated on its first
    /// fill. `token_mask` carries the detector's result for the incoming
    /// data. Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool, token_mask: u8) -> Option<EvictedLine> {
        let stamp = self.bump();
        if let Some(way) = self.find_mut(addr) {
            // Refill of a resident line (e.g. upgrade); merge state.
            way.stamp = stamp;
            way.dirty |= dirty;
            way.token_mask |= token_mask;
            return None;
        }
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = self.ways.touch(set as usize);
        // Choose an invalid way, else the LRU way.
        let victim = match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                // Invariant: `BlockTable::new` rejects a zero-way set.
                let (i, _) = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .expect("associativity is at least 1");
                i
            }
        };
        let old = ways[victim];
        ways[victim] = Way {
            tag,
            stamp,
            valid: true,
            dirty,
            token_mask,
        };
        old.valid.then(|| EvictedLine {
            addr: ((old.tag << self.set_shift) | set) << self.line_shift,
            dirty: old.dirty,
            token_mask: old.token_mask,
        })
    }

    /// Invalidates `addr`'s line, returning its state if it was resident.
    pub fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let way = std::mem::take(self.find_mut(addr)?);
        Some(EvictedLine {
            addr: self.line_addr(addr),
            dirty: way.dirty,
            token_mask: way.token_mask,
        })
    }

    /// Number of valid lines (for occupancy assertions in tests).
    pub fn resident_lines(&self) -> usize {
        self.ways.touched().flatten().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn tiny() -> Cache {
        Cache::new(MemConfig::tiny().l1d, "L1D")
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(0x1000, false).is_none());
        assert!(c.fill(0x1000, false, 0).is_none());
        assert!(c.lookup(0x1000, false).is_some());
        assert!(c.lookup(0x103f, false).is_some()); // same line
        assert!(c.lookup(0x1040, false).is_none()); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(); // 2-way, 8 sets, 64B lines => set stride 512
        let a = 0x0000u64;
        let b = a + 512; // same set
        let d = a + 1024; // same set
        c.fill(a, false, 0);
        c.fill(b, false, 0);
        c.lookup(a, false); // a is now MRU
        let ev = c.fill(d, false, 0).expect("must evict");
        assert_eq!(ev.addr, b);
        assert!(c.probe(a) && c.probe(d) && !c.probe(b));
    }

    #[test]
    fn dirty_state_tracks_writes_and_travels_on_eviction() {
        let mut c = tiny();
        c.fill(0x0, false, 0);
        c.lookup(0x8, true); // write dirties the line
        c.fill(512, false, 0);
        let ev = c.fill(1024, false, 0).unwrap();
        assert_eq!(ev.addr, 0x0);
        assert!(ev.dirty);
    }

    #[test]
    fn token_bits_per_slot() {
        let mut c = tiny();
        c.fill(0x1000, false, 0);
        // 16-byte slots: 4 per line.
        c.set_token_bits(0x1000, 0b0001);
        c.set_token_bits(0x1000, 0b0100);
        assert_eq!(c.token_mask(0x1000), Some(0b0101));
        assert!(c.token_bit_covering(0x1000, 16));
        assert!(!c.token_bit_covering(0x1010, 16));
        assert!(c.token_bit_covering(0x1020, 16));
        c.clear_token_bit(0x1020, 16);
        assert_eq!(c.token_mask(0x1000), Some(0b0001));
    }

    #[test]
    fn access_touching_armed_slot_detected_across_slot_boundary() {
        let mut c = tiny();
        c.fill(0x1000, false, 0b0010); // slot 1 (0x1010..0x1020) armed, 16B slots
                                       // 8-byte access straddling slot 0 into slot 1.
        assert!(c.access_touches_token(0x100c, 8, 16));
        assert!(!c.access_touches_token(0x1000, 8, 16));
        assert!(c.access_touches_token(0x101f, 1, 16));
        assert!(!c.access_touches_token(0x1020, 1, 16));
    }

    #[test]
    fn access_touching_armed_slot_detected_across_line_boundary() {
        let mut c = tiny();
        // Line 0x1000: slot 3 (0x1030..0x1040) armed; line 0x1040 clean.
        c.fill(0x1000, false, 0b1000);
        c.fill(0x1040, false, 0);
        // A 32-byte access spanning both lines whose first and last bytes
        // land in clean slots but whose interior covers the armed slot.
        assert!(c.access_touches_token(0x1028, 32, 16));
        // The same span one line later touches nothing.
        assert!(!c.access_touches_token(0x1068, 32, 16));
        // A line-straddling access whose *last* slot is the armed one.
        c.fill(0x1080, false, 0);
        c.fill(0x10c0, false, 0b0001);
        assert!(c.access_touches_token(0x10b8, 16, 16));
        assert!(!c.access_touches_token(0x10a8, 16, 16));
        // Wide access fully inside one line with only an interior armed
        // slot (first/last slots clean).
        assert!(c.access_touches_token(0x1000, 64, 16));
    }

    #[test]
    fn eviction_reports_token_mask_for_lazy_value_write() {
        let mut c = tiny();
        c.fill(0x0, false, 0);
        c.set_token_bits(0x0, 0b1);
        c.mark_dirty(0x0);
        c.fill(512, false, 0);
        let ev = c.fill(1024, false, 0).unwrap();
        assert_eq!(ev.token_mask, 0b1);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_resident_line_merges_state() {
        let mut c = tiny();
        c.fill(0x40, false, 0);
        assert!(c.fill(0x40, true, 0b10).is_none());
        assert_eq!(c.token_mask(0x40), Some(0b10));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x80, true, 0b1);
        let ev = c.invalidate(0x80).unwrap();
        assert_eq!(ev.addr, 0x80);
        assert!(ev.dirty);
        assert_eq!(ev.token_mask, 0b1);
        assert!(!c.probe(0x80));
        assert!(c.invalidate(0x80).is_none());
    }

    #[test]
    fn stamp_wraparound_keeps_every_sets_lru_order() {
        let mut c = tiny(); // 2-way, 8 sets, 64B lines => set stride 512
        let (a, b, d) = (0x0u64, 0x200u64, 0x400u64); // set 0
        let (e, f, g) = (0x40u64, 0x240u64, 0x440u64); // set 1
        c.fill(a, false, 0);
        c.fill(e, false, 0);
        c.fill(b, false, 0);
        c.fill(f, true, 0b1);
        c.lookup(a, false); // set 0: b is LRU
        c.lookup(e, false); // set 1: f is LRU
        c.next_stamp = u32::MAX - 1;
        c.lookup(b, false); // stamp u32::MAX: set 0's LRU is now a
        c.lookup(0x9999_0000, false); // a miss still uses a stamp: renumbers
        assert_eq!(c.next_stamp, 3);
        let ev = c.fill(d, false, 0).expect("set 0 is full");
        assert_eq!(ev.addr, a);
        let ev = c.fill(g, false, 0).expect("set 1 is full");
        assert_eq!(
            ev,
            EvictedLine {
                addr: f,
                dirty: true,
                token_mask: 0b1
            }
        );
        assert!(c.probe(b) && c.probe(d) && c.probe(e) && c.probe(g));
    }

    #[test]
    fn fresh_isca_l2_allocates_ways_only_on_fill() {
        let mut c = Cache::new(CacheConfig::isca2018_l2(), "L2");
        assert_eq!(c.ways.touched_blocks(), 0);
        // Misses, probes and invalidations of absent lines allocate nothing.
        assert!(c.lookup(0x4000, true).is_none());
        assert!(!c.probe(0x4000) && !c.token_bit_covering(0x4000, 16));
        assert!(c.invalidate(0x4000).is_none());
        assert_eq!((c.ways.touched_blocks(), c.resident_lines()), (0, 0));
        c.fill(0x4000, false, 0);
        assert_eq!(c.ways.touched_blocks(), 1);
        c.fill(0x4000 + 2048 * 64, false, 0); // same set
        assert_eq!(c.ways.touched_blocks(), 1);
        c.fill(0x4040, false, 0); // next set
        assert_eq!((c.ways.touched_blocks(), c.resident_lines()), (2, 3));
    }

    /// The eager set-major layout the cache had before sets were
    /// allocated on first fill: `ways[s * assoc..(s + 1) * assoc]` is set
    /// `s`, every way built invalid up front.
    struct EagerCache {
        ways: Vec<Way>,
        assoc: usize,
        line_shift: u32,
        set_shift: u32,
        next_stamp: u32,
    }

    impl EagerCache {
        fn new(cfg: &CacheConfig) -> EagerCache {
            EagerCache {
                ways: vec![Way::default(); cfg.sets() * cfg.assoc],
                assoc: cfg.assoc,
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_shift: cfg.sets().trailing_zeros(),
                next_stamp: 0,
            }
        }

        fn set(&self, addr: u64) -> usize {
            ((addr >> self.line_shift) & ((1 << self.set_shift) - 1)) as usize
        }

        fn bump(&mut self) -> u32 {
            if self.next_stamp == u32::MAX {
                for set in self.ways.chunks_mut(self.assoc) {
                    let mut valid: Vec<&mut Way> = set.iter_mut().filter(|w| w.valid).collect();
                    valid.sort_unstable_by_key(|w| w.stamp);
                    for (rank, w) in (1..).zip(valid) {
                        w.stamp = rank;
                    }
                }
                self.next_stamp = self.assoc as u32;
            }
            self.next_stamp += 1;
            self.next_stamp
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let first = self.set(addr) * self.assoc;
            let tag = addr >> self.line_shift >> self.set_shift;
            (first..first + self.assoc).find(|&i| self.ways[i].valid && self.ways[i].tag == tag)
        }

        fn lookup(&mut self, addr: u64, is_write: bool) -> Option<u8> {
            let stamp = self.bump();
            let i = self.find(addr)?;
            let w = &mut self.ways[i];
            w.stamp = stamp;
            w.dirty |= is_write;
            Some(w.token_mask)
        }

        fn fill(&mut self, addr: u64, dirty: bool, token_mask: u8) -> Option<EvictedLine> {
            let stamp = self.bump();
            if let Some(i) = self.find(addr) {
                let w = &mut self.ways[i];
                w.stamp = stamp;
                w.dirty |= dirty;
                w.token_mask |= token_mask;
                return None;
            }
            let set = self.set(addr);
            let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
            let victim = match ways.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => {
                    ways.iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.stamp)
                        .unwrap()
                        .0
                }
            };
            let old = ways[victim];
            let tag = addr >> self.line_shift >> self.set_shift;
            ways[victim] = Way {
                tag,
                stamp,
                valid: true,
                dirty,
                token_mask,
            };
            old.valid.then(|| EvictedLine {
                addr: ((old.tag << self.set_shift) | set as u64) << self.line_shift,
                dirty: old.dirty,
                token_mask: old.token_mask,
            })
        }

        fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
            let i = self.find(addr)?;
            let way = std::mem::take(&mut self.ways[i]);
            Some(EvictedLine {
                addr: addr & !((1 << self.line_shift) - 1),
                dirty: way.dirty,
                token_mask: way.token_mask,
            })
        }

        fn resident(&mut self, addr: u64) -> &mut Way {
            let i = self.find(addr).expect("resident");
            &mut self.ways[i]
        }
    }

    /// Drives `Cache` and [`EagerCache`] through one seeded random
    /// sequence of every mutating operation, with forced stamp
    /// wraparounds, and requires identical results at every step.
    fn lockstep(cfg: CacheConfig, seed: u64, steps: usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Cache::new(cfg.clone(), "DUT");
        let mut r = EagerCache::new(&cfg);
        // Lines spanning every set with `assoc + 2` tags each, so sets
        // overflow and evict.
        let lines = (cfg.sets() * (cfg.assoc + 2)) as u64;
        let slot_bytes = 16;
        for step in 0..steps {
            let addr = rng.gen_range(0..lines) * cfg.line_bytes + rng.gen_range(0..cfg.line_bytes);
            let resident = r.find(addr).is_some();
            assert_eq!(c.probe(addr), resident, "step {step}: probe {addr:#x}");
            match rng.gen_range(0..8u32) {
                0 | 1 => {
                    let w = rng.gen::<bool>();
                    assert_eq!(c.lookup(addr, w), r.lookup(addr, w), "step {step}: lookup");
                }
                2 | 3 => {
                    let (d, m) = (rng.gen::<bool>(), rng.gen_range(0..16u8));
                    assert_eq!(c.fill(addr, d, m), r.fill(addr, d, m), "step {step}: fill");
                }
                4 => assert_eq!(
                    c.invalidate(addr),
                    r.invalidate(addr),
                    "step {step}: invalidate"
                ),
                5 if resident => {
                    let m = 1 << rng.gen_range(0..4u8);
                    c.set_token_bits(addr, m);
                    r.resident(addr).token_mask |= m;
                }
                6 if resident => {
                    c.clear_token_bit(addr, slot_bytes);
                    let bit = 1u8 << ((addr % cfg.line_bytes) / slot_bytes);
                    let w = r.resident(addr);
                    w.token_mask &= !bit;
                    w.dirty = true;
                }
                7 if resident => {
                    c.mark_dirty(addr);
                    r.resident(addr).dirty = true;
                }
                _ => {
                    // Force the 32-bit stamp counter to wrap within a few
                    // operations.
                    let near = u32::MAX - rng.gen_range(0..3u32);
                    c.next_stamp = near;
                    r.next_stamp = near;
                }
            }
            assert_eq!(c.next_stamp, r.next_stamp, "step {step}: stamp");
            assert_eq!(
                c.token_mask(addr),
                r.find(addr).map(|i| r.ways[i].token_mask)
            );
            assert_eq!(
                c.resident_lines(),
                r.ways.iter().filter(|w| w.valid).count()
            );
        }
    }

    #[test]
    fn sets_allocated_on_fill_match_the_eager_layout_step_for_step() {
        let tiny = MemConfig::tiny();
        lockstep(tiny.l1d, 1, 20_000);
        lockstep(tiny.l2, 2, 20_000);
    }

    #[test]
    fn isca_l1d_holds_1024_lines() {
        let mut c = Cache::new(CacheConfig::isca2018_l1d(), "L1D");
        for i in 0..1024u64 {
            c.fill(i * 64, false, 0);
        }
        assert_eq!(c.resident_lines(), 1024);
        // 1025th line must evict.
        assert!(c.fill(1024 * 64, false, 0).is_some());
    }
}
