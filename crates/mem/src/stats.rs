/// Counters collected by the memory hierarchy.
///
/// Includes the REST-specific activity the paper reports in §VI-B prose:
/// token detections at the L1-D fill path and token-carrying lines
/// crossing the L2/memory interface (≈ 0.04 per kilo-instruction for
/// xalanc in the secure full configuration).
///
/// The `*_misses` counters count every access that missed the level,
/// including secondary misses merged onto an in-flight MSHR entry; only
/// a primary miss goes on to the next level. So `l1d_misses +
/// l1i_misses` can far exceed `l2_hits + l2_misses`: bzip2 under plain
/// in `results/fig7.json` has 3,948 L1-D and 21 L1-I misses against 538
/// L2 accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    pub l1i_hits: u64,
    /// L1-I misses, MSHR-merged secondary misses included.
    pub l1i_misses: u64,
    pub l1d_hits: u64,
    /// L1-D misses, MSHR-merged secondary misses included.
    pub l1d_misses: u64,
    pub l2_hits: u64,
    /// L2 misses, MSHR-merged secondary misses included.
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub l1d_writebacks: u64,
    pub l2_writebacks: u64,
    /// Fills into the L1-D in which the token detector found the token
    /// and set token bit(s).
    pub token_detections_on_fill: u64,
    /// Armed (token-bit) lines evicted from the L1-D, i.e. packets in
    /// which the token value was materialised on the way out.
    pub token_lines_evicted_l1d: u64,
    /// Token-carrying lines crossing the L2/memory interface in either
    /// direction (the paper's "tokens per kilo-instruction" statistic).
    pub token_lines_l2_mem: u64,
    /// Exceptions detected at the cache (token loads/stores, bad disarm).
    pub rest_exceptions: u64,
    /// Debug-mode loads held in the MSHR because the critical word
    /// partially matched the token.
    pub debug_load_holds: u64,
    /// Misses served by the §VIII dedicated token cache (0 unless that
    /// feature is enabled).
    pub token_cache_hits: u64,
}

impl MemStats {
    /// Number of counter fields. Consumers that enumerate the fields
    /// (the sink's `stats_map`, the merge test) assert against this so
    /// a new counter cannot be added without wiring it everywhere.
    pub const FIELD_COUNT: usize = 15;

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &MemStats) {
        self.l1i_hits += other.l1i_hits;
        self.l1i_misses += other.l1i_misses;
        self.l1d_hits += other.l1d_hits;
        self.l1d_misses += other.l1d_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_accesses += other.dram_accesses;
        self.l1d_writebacks += other.l1d_writebacks;
        self.l2_writebacks += other.l2_writebacks;
        self.token_detections_on_fill += other.token_detections_on_fill;
        self.token_lines_evicted_l1d += other.token_lines_evicted_l1d;
        self.token_lines_l2_mem += other.token_lines_l2_mem;
        self.rest_exceptions += other.rest_exceptions;
        self.debug_load_holds += other.debug_load_holds;
        self.token_cache_hits += other.token_cache_hits;
    }

    /// L1-D hit rate over all data accesses.
    pub fn l1d_hit_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MemStats {
            l1d_hits: 10,
            token_lines_l2_mem: 2,
            ..MemStats::default()
        };
        let b = MemStats {
            l1d_hits: 5,
            l1d_misses: 3,
            ..MemStats::default()
        };
        a.merge(&b);
        assert_eq!(a.l1d_hits, 15);
        assert_eq!(a.l1d_misses, 3);
        assert_eq!(a.token_lines_l2_mem, 2);
    }

    /// Exhaustiveness guard: adding a field to `MemStats` must fail
    /// this test (non-exhaustive destructuring is a compile error)
    /// until `merge` — and the field-count assertions in
    /// `rest-cpu`'s `stats_map` test — are updated to carry it.
    #[test]
    fn merge_covers_every_field() {
        // Compile-time: the destructuring below names every field.
        let MemStats {
            l1i_hits,
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l2_hits,
            l2_misses,
            dram_accesses,
            l1d_writebacks,
            l2_writebacks,
            token_detections_on_fill,
            token_lines_evicted_l1d,
            token_lines_l2_mem,
            rest_exceptions,
            debug_load_holds,
            token_cache_hits,
        } = MemStats::default();
        let all = [
            l1i_hits,
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l2_hits,
            l2_misses,
            dram_accesses,
            l1d_writebacks,
            l2_writebacks,
            token_detections_on_fill,
            token_lines_evicted_l1d,
            token_lines_l2_mem,
            rest_exceptions,
            debug_load_holds,
            token_cache_hits,
        ];
        assert_eq!(all.len(), MemStats::FIELD_COUNT);

        // Runtime: merging a block with a distinct value in every
        // field must propagate each one — a forgotten `+=` line in
        // `merge` shows up as a mismatched field here.
        let mut acc = MemStats::default();
        let probe = MemStats {
            l1i_hits: 1,
            l1i_misses: 2,
            l1d_hits: 3,
            l1d_misses: 4,
            l2_hits: 5,
            l2_misses: 6,
            dram_accesses: 7,
            l1d_writebacks: 8,
            l2_writebacks: 9,
            token_detections_on_fill: 10,
            token_lines_evicted_l1d: 11,
            token_lines_l2_mem: 12,
            rest_exceptions: 13,
            debug_load_holds: 14,
            token_cache_hits: 15,
        };
        acc.merge(&probe);
        assert_eq!(acc, probe, "MemStats::merge dropped a field");
        acc.merge(&probe);
        assert_eq!(acc.token_cache_hits, 30);
        assert_eq!(acc.l1i_hits, 2);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(MemStats::default().l1d_hit_rate(), 0.0);
        let s = MemStats {
            l1d_hits: 3,
            l1d_misses: 1,
            ..MemStats::default()
        };
        assert!((s.l1d_hit_rate() - 0.75).abs() < 1e-12);
    }
}
