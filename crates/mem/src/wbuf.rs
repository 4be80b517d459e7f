/// A write buffer for outgoing writebacks.
///
/// Evicted dirty lines park here while draining to the next level. When
/// the buffer is full, the evicting access stalls until the oldest entry
/// drains — the structural hazard the paper's 8-entry buffers bound.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    /// Drain-completion cycles of occupied entries.
    drains: Vec<u64>,
    stalls: u64,
    total_writebacks: u64,
}

impl WriteBuffer {
    /// Creates a buffer with `capacity` entries (0 = writes bypass
    /// buffering and complete inline).
    pub fn new(capacity: usize) -> WriteBuffer {
        WriteBuffer {
            capacity,
            drains: Vec::new(),
            stalls: 0,
            total_writebacks: 0,
        }
    }

    fn expire(&mut self, now: u64) {
        self.drains.retain(|&d| d > now);
    }

    /// Enqueues a writeback at `now` that takes `drain_latency` cycles to
    /// reach the next level. Returns the cycle at which the *evicting
    /// access* may proceed: `now` if a slot was free, later if the buffer
    /// was full and the access had to wait for the oldest drain.
    pub fn push(&mut self, now: u64, drain_latency: u64) -> u64 {
        self.expire(now);
        self.total_writebacks += 1;
        let start = if self.capacity == 0 {
            // No buffering: the access absorbs the whole drain.
            return now + drain_latency;
        } else if self.drains.len() >= self.capacity {
            self.stalls += 1;
            // Invariant: capacity > 0 here, so a full buffer holds a drain.
            let earliest = *self.drains.iter().min().expect("buffer non-empty");
            self.expire(earliest);
            earliest
        } else {
            now
        };
        self.drains.push(start + drain_latency);
        start
    }

    /// Entries currently draining.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.drains.len()
    }

    /// Number of full-buffer stalls.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total writebacks accepted.
    pub fn total_writebacks(&self) -> u64 {
        self.total_writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_slot_costs_nothing() {
        let mut wb = WriteBuffer::new(2);
        assert_eq!(wb.push(10, 50), 10);
        assert_eq!(wb.occupancy(10), 1);
        assert_eq!(wb.occupancy(60), 0);
    }

    #[test]
    fn full_buffer_stalls_until_oldest_drain() {
        let mut wb = WriteBuffer::new(2);
        wb.push(0, 100); // drains at 100
        wb.push(0, 40); // drains at 40
        let start = wb.push(10, 10);
        assert_eq!(start, 40);
        assert_eq!(wb.stalls(), 1);
    }

    #[test]
    fn zero_capacity_absorbs_latency_inline() {
        let mut wb = WriteBuffer::new(0);
        assert_eq!(wb.push(5, 20), 25);
    }

    #[test]
    fn counts_writebacks() {
        let mut wb = WriteBuffer::new(4);
        for i in 0..3 {
            wb.push(i, 5);
        }
        assert_eq!(wb.total_writebacks(), 3);
    }
}
