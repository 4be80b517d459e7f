//! Seeded random-number generator for fuzz campaigns.
//!
//! A ChaCha-style block generator: the key is expanded from a 64-bit
//! seed, and the stream position is a plain draw counter, so a seed
//! names one exact program sequence on every host.

/// Number of double rounds (ChaCha8 = 4 double rounds).
const DOUBLE_ROUNDS: usize = 4;

/// A seeded ChaCha8 random stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRng {
    key: [u32; 8],
    /// Total u32 words drawn so far — the entire stream position.
    drawn: u64,
    /// Cached keystream block holding word `drawn` (when `buf_block ==
    /// drawn / 16`), regenerated lazily on block boundaries.
    buf: [u32; 16],
    buf_block: u64,
}

/// splitmix64 — the standard seed-expansion mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl FuzzRng {
    /// A fresh stream for `seed`, positioned at word 0.
    pub fn new(seed: u64) -> FuzzRng {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in 0..4 {
            let word = splitmix64(&mut sm);
            key[2 * pair] = word as u32;
            key[2 * pair + 1] = (word >> 32) as u32;
        }
        FuzzRng {
            key,
            drawn: 0,
            buf: [0; 16],
            buf_block: u64::MAX,
        }
    }

    /// The ChaCha8 keystream block at block counter `counter`.
    fn block(&self, counter: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let mut work = state;
        for _ in 0..DOUBLE_ROUNDS {
            quarter(&mut work, 0, 4, 8, 12);
            quarter(&mut work, 1, 5, 9, 13);
            quarter(&mut work, 2, 6, 10, 14);
            quarter(&mut work, 3, 7, 11, 15);
            quarter(&mut work, 0, 5, 10, 15);
            quarter(&mut work, 1, 6, 11, 12);
            quarter(&mut work, 2, 7, 8, 13);
            quarter(&mut work, 3, 4, 9, 14);
        }
        for (w, s) in work.iter_mut().zip(state.iter()) {
            *w = w.wrapping_add(*s);
        }
        work
    }

    /// Next 32 bits of the stream.
    pub fn next_u32(&mut self) -> u32 {
        let block = self.drawn / 16;
        if block != self.buf_block {
            self.buf = self.block(block);
            self.buf_block = block;
        }
        let word = self.buf[(self.drawn % 16) as usize];
        self.drawn += 1;
        word
    }

    /// Next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A value in `lo..=hi`. (Modulo bias is irrelevant for corpus
    /// generation; determinism is what matters.)
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = FuzzRng::new(43);
        let differs = (0..100).any(|_| a.next_u32() != c.next_u32());
        assert!(differs, "different seeds must diverge");
    }

    #[test]
    fn range_and_chance_stay_in_bounds() {
        let mut rng = FuzzRng::new(7);
        for _ in 0..500 {
            let v = rng.range(3, 9);
            assert!((3..=9).contains(&v));
            let _ = rng.chance(1, 4);
        }
        assert_eq!(rng.range(5, 5), 5);
    }

    #[test]
    fn stream_is_not_constant() {
        let mut rng = FuzzRng::new(1);
        let head: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
        assert!(head.windows(2).any(|w| w[0] != w[1]));
    }
}
