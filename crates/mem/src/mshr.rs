/// One in-flight line fill.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    line: u64,
    /// Fill completion cycle.
    done: u64,
    /// Targets merged so far (the primary miss counts as one).
    targets: usize,
}

/// A miss-status holding register file.
///
/// Tracks outstanding line fills for one cache level. A secondary miss to
/// a line already in flight *merges*: it costs no new entry and completes
/// when the primary fill returns (subject to the per-entry target limit).
/// When all entries are busy, a new miss must wait for the earliest
/// completion — the stall the paper's Table II provisions against with
/// "4 20-entry MSHRs".
///
/// The in-flight fills live in a fixed array of [`MshrFile::MAX_ENTRIES`]
/// slots, at most one per line; the first `len` slots are live.
///
/// # Example
///
/// ```
/// use rest_mem::MshrFile;
///
/// let mut mshrs = MshrFile::new(2, 4);
/// let start = mshrs.allocate(0x1000, 10, 100); // line, now, fill-done
/// assert_eq!(start, 10);                        // no structural stall
/// assert_eq!(mshrs.merge(0x1000, 50), Some(100)); // secondary miss merges
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: usize,
    targets_per_entry: usize,
    inflight: [Entry; MshrFile::MAX_ENTRIES],
    len: usize,
    stalls: u64,
    merges: u64,
}

impl MshrFile {
    /// Capacity of the entry array: the largest file Table II
    /// provisions (the L2's 20 entries).
    pub const MAX_ENTRIES: usize = 20;

    /// Creates a file with `entries` primary-miss slots, each accepting
    /// `targets_per_entry` merged secondary misses.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or exceeds [`MshrFile::MAX_ENTRIES`].
    pub fn new(entries: usize, targets_per_entry: usize) -> MshrFile {
        assert!(entries > 0, "an MSHR file needs at least one entry");
        assert!(
            entries <= Self::MAX_ENTRIES,
            "{entries} MSHR entries exceed the {}-entry file",
            Self::MAX_ENTRIES
        );
        MshrFile {
            entries,
            targets_per_entry,
            inflight: [Entry::default(); Self::MAX_ENTRIES],
            len: 0,
            stalls: 0,
            merges: 0,
        }
    }

    fn live(&self) -> &[Entry] {
        &self.inflight[..self.len]
    }

    /// Drops entries whose fills completed at or before `now`.
    pub fn expire(&mut self, now: u64) {
        let mut kept = 0;
        for i in 0..self.len {
            if self.inflight[i].done > now {
                self.inflight[kept] = self.inflight[i];
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// If `line` is already being fetched at `now`, merges onto the entry
    /// and returns the fill completion cycle. Returns `None` when the
    /// line is not in flight *or* the entry's target slots are exhausted
    /// (the access must then be retried; we model that as a fresh
    /// allocation after the entry retires).
    #[inline(always)]
    pub fn merge(&mut self, line: u64, now: u64) -> Option<u64> {
        if self.len == 0 {
            // Nothing in flight: nothing to expire or merge onto.
            return None;
        }
        self.merge_inflight(line, now)
    }

    /// [`MshrFile::merge`] on a file with fills in flight.
    fn merge_inflight(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let limit = self.targets_per_entry;
        let e = self.inflight[..self.len]
            .iter_mut()
            .find(|e| e.line == line && e.targets < limit)?;
        e.targets += 1;
        self.merges += 1;
        Some(e.done)
    }

    /// Allocates an entry for a primary miss to `line` discovered at
    /// `now` whose fill would complete at `fill_done` if it started
    /// immediately. Returns the cycle at which the miss can actually
    /// *start* (== `now` unless the file is full, in which case the
    /// request waits for the earliest in-flight completion). A line
    /// still in flight — its targets exhausted — has its entry replaced.
    pub fn allocate(&mut self, line: u64, now: u64, fill_done: u64) -> u64 {
        self.expire(now);
        let mut wait = 0;
        if self.len >= self.entries {
            // `new` admits no empty file, so a full file holds an entry.
            let earliest = self
                .live()
                .iter()
                .map(|e| e.done)
                .min()
                .expect("file is non-empty when full");
            self.stalls += 1;
            // The stalled request begins once a slot frees.
            wait = earliest.saturating_sub(now);
            self.expire(earliest);
        }
        let entry = Entry {
            line,
            done: fill_done + wait,
            targets: 1,
        };
        match self.live().iter().position(|e| e.line == line) {
            Some(i) => self.inflight[i] = entry,
            None => {
                self.inflight[self.len] = entry;
                self.len += 1;
            }
        }
        now + wait
    }

    /// Number of in-flight fills (after expiring completed ones).
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.len
    }

    /// Number of times a request stalled on a full file.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Number of merged secondary misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_miss_starts_immediately_when_free() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.allocate(0x0, 5, 50), 5);
        assert_eq!(m.occupancy(5), 1);
    }

    #[test]
    fn secondary_miss_merges_until_target_limit() {
        let mut m = MshrFile::new(1, 2);
        m.allocate(0x40, 0, 100);
        assert_eq!(m.merge(0x40, 10), Some(100)); // target 2
        assert_eq!(m.merge(0x40, 20), None); // limit hit
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_file_delays_new_miss_until_earliest_completion() {
        let mut m = MshrFile::new(2, 4);
        m.allocate(0x0, 0, 60);
        m.allocate(0x40, 0, 90);
        let start = m.allocate(0x80, 10, 110);
        assert_eq!(start, 60); // waited for the 0x0 fill
        assert_eq!(m.stalls(), 1);
    }

    #[test]
    fn entries_expire() {
        let mut m = MshrFile::new(1, 4);
        m.allocate(0x0, 0, 30);
        assert_eq!(m.occupancy(29), 1);
        assert_eq!(m.occupancy(30), 0);
        assert_eq!(m.merge(0x0, 31), None); // completed, no merge target
    }

    #[test]
    fn exhausted_entry_is_replaced_by_reallocation() {
        let mut m = MshrFile::new(2, 2);
        m.allocate(0x40, 0, 100);
        assert_eq!(m.merge(0x40, 10), Some(100));
        assert_eq!(m.merge(0x40, 20), None); // target limit hit

        // The retry re-allocates the same line: the entry is replaced in
        // place (no second entry, no structural stall) with the new fill
        // time and a fresh target count.
        assert_eq!(m.allocate(0x40, 20, 150), 20);
        assert_eq!(m.occupancy(20), 1);
        assert_eq!(m.stalls(), 0);
        assert_eq!(m.merge(0x40, 30), Some(150));
        assert_eq!(m.merge(0x40, 40), None);
        assert_eq!(m.merges(), 2);
        // Completes at the replacement's time, not the original's.
        assert_eq!(m.occupancy(149), 1);
        assert_eq!(m.occupancy(150), 0);
    }

    #[test]
    fn full_file_reallocation_of_an_exhausted_line_replaces_it() {
        let mut m = MshrFile::new(2, 1);
        m.allocate(0x0, 0, 60);
        m.allocate(0x40, 0, 90);
        assert_eq!(m.merge(0x40, 5), None); // one target: already exhausted

        // Full: wait for the 0x0 fill, then replace 0x40's entry.
        assert_eq!(m.allocate(0x40, 10, 110), 60);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.occupancy(60), 1);
        assert_eq!(m.occupancy(159), 1);
        assert_eq!(m.occupancy(160), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_file_is_rejected() {
        let _ = MshrFile::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceed the 20-entry file")]
    fn oversized_file_is_rejected() {
        let _ = MshrFile::new(MshrFile::MAX_ENTRIES + 1, 1);
    }
}
