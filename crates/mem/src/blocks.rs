/// A table of equal-length blocks whose storage is allocated on each
/// block's first touch.
///
/// Simulated structures such as cache sets and predictor tables are
/// large (the paper's 2 MB L2 alone has 32 Ki ways) while a short run
/// touches a small part of them. A `BlockTable` builds only a per-block
/// index of offsets into one growing `store`, whose first block is a
/// shared block of the table's fill value that is never written. Every
/// index entry starts at 0, so an untouched block reads as that shared
/// block, with no branch on the read path; [`BlockTable::touch`] appends
/// a fresh copy of it on a block's first write. The store reserves room
/// for every block up front but writes none of it: a reservation is one
/// allocator call whatever its size, and it keeps appends from moving
/// the store. Construction therefore writes one `u32` per block, and a
/// run pays for the blocks it writes.
///
/// # Example
///
/// ```
/// use rest_mem::BlockTable;
///
/// let mut t = BlockTable::new(1024, 4, 0u8);
/// assert_eq!(t.get(7), &[0, 0, 0, 0]); // never touched: reads as fill
/// t.touch(7)[2] = 9;
/// assert_eq!(t.get(7), &[0, 0, 9, 0]);
/// assert_eq!(t.touched_blocks(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BlockTable<T> {
    /// Offset in `store` of each block's first element; 0 (the shared
    /// fill block) until the block is first touched.
    index: Vec<u32>,
    /// The shared fill block, then every touched block in order of
    /// first touch.
    store: Vec<T>,
    block_len: usize,
}

impl<T: Copy> BlockTable<T> {
    /// A table of `blocks` untouched blocks of `block_len` elements,
    /// each reading as `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is 0 or the table's elements do not fit a
    /// `u32` offset.
    pub fn new(blocks: usize, block_len: usize, fill: T) -> BlockTable<T> {
        assert!(block_len > 0, "blocks hold at least one element");
        // Invariant: table sizes come from the machine config, not the guest.
        let elements = (blocks + 1)
            .checked_mul(block_len)
            .filter(|&n| u32::try_from(n).is_ok())
            .expect("table too large");
        let mut store = Vec::with_capacity(elements);
        store.resize(block_len, fill);
        BlockTable {
            index: vec![0; blocks],
            store,
            block_len,
        }
    }

    /// Block `block`; the shared fill block while it is untouched.
    #[inline]
    pub fn get(&self, block: usize) -> &[T] {
        let first = self.index[block] as usize;
        &self.store[first..first + self.block_len]
    }

    /// Block `block` for writing, or `None` if it has never been
    /// touched. Does not allocate.
    #[inline]
    pub fn get_mut(&mut self, block: usize) -> Option<&mut [T]> {
        match self.index[block] as usize {
            0 => None,
            first => Some(&mut self.store[first..first + self.block_len]),
        }
    }

    /// Block `block` for writing, allocating it (a copy of the fill
    /// block) on its first touch.
    #[inline]
    pub fn touch(&mut self, block: usize) -> &mut [T] {
        let mut first = self.index[block] as usize;
        if first == 0 {
            first = self.store.len();
            self.store.extend_from_within(..self.block_len);
            self.index[block] = first as u32;
        }
        &mut self.store[first..first + self.block_len]
    }

    /// Number of blocks touched so far.
    pub fn touched_blocks(&self) -> usize {
        self.store.len() / self.block_len - 1
    }

    /// Every touched block, in order of first touch.
    pub fn touched(&self) -> std::slice::Chunks<'_, T> {
        self.store[self.block_len..].chunks(self.block_len)
    }

    /// Every touched block for writing, in order of first touch.
    pub fn touched_mut(&mut self) -> std::slice::ChunksMut<'_, T> {
        let len = self.block_len;
        self.store[len..].chunks_mut(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_blocks_read_as_fill_and_allocate_once() {
        let mut t = BlockTable::new(8, 3, 1u8);
        assert!((0..8).all(|b| t.get(b) == [1, 1, 1]));
        assert!(t.get_mut(5).is_none());
        assert_eq!(t.touched_blocks(), 0);
        assert_eq!(t.touch(5), &[1, 1, 1]);
        t.touch(5)[1] = 7;
        t.touch(2)[0] = 4;
        assert_eq!(t.touched_blocks(), 2);
        assert_eq!(t.get(5), &[1, 7, 1]);
        assert_eq!(t.get(2), &[4, 1, 1]);
        t.get_mut(2).unwrap()[2] = 9;
        let blocks: Vec<&[u8]> = t.touched().collect();
        assert_eq!(blocks, [&[1, 7, 1], &[4, 1, 9]]);
        for b in t.touched_mut() {
            b[0] = 0;
        }
        assert_eq!(t.get(5), &[0, 7, 1]);
        // Writes to touched blocks never reach the shared fill block.
        t.touch(4).fill(3);
        assert_eq!((t.get(3), t.get(4)), (&[1, 1, 1][..], &[3, 3, 3][..]));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_blocks_are_rejected() {
        BlockTable::new(4, 0, 0u8);
    }
}
