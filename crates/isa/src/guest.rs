use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::inst::MemSize;

/// Size of one page of guest memory.
pub const PAGE_SIZE: u64 = 4096;

/// Multiplicative hasher for the page table's `u64` keys. Every guest
/// load, store, and instruction fetch goes through one page lookup, so
/// the default SipHash is pure overhead here; page indices are
/// attacker-neutral simulator state, not untrusted input, so a
/// Fibonacci-multiply spreads them well enough. Never iterated, so the
/// hash order can't leak into results.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// The functional memory image of the simulated machine.
///
/// A sparse, paged, byte-addressable 64-bit address space. Reads of
/// never-written locations return zero, matching demand-zero pages of a
/// real OS. The timing model keeps *cache state* separately; this type is
/// the architectural contents of memory, shared by the emulator, the
/// runtime allocators, and the L1-D token detector (which compares actual
/// line bytes against the token value on fill).
///
/// # Example
///
/// ```
/// use rest_isa::GuestMemory;
///
/// let mut mem = GuestMemory::new();
/// mem.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u64(0x2000), 0); // demand-zero
/// ```
#[derive(Debug, Clone)]
pub struct GuestMemory {
    /// Page frames, appended on first touch and never removed, so frame
    /// indices stay stable for the lifetime of the memory.
    frames: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    /// Page number → index into `frames`.
    table: PageMap<usize>,
    /// Two-entry translation cache of `(page number, frame index)` pairs
    /// for the most recently resolved *resident* pages, newest first.
    /// Guest access streams are heavily page-local, so this converts
    /// most lookups — every load, store, and shadow poke pays one — into
    /// a compare or two and a vector index. Two entries, because an
    /// ASan run alternates every access between a data page and its
    /// shadow page, which one entry would miss every time. Sound because
    /// pages are never unmapped; absent pages (demand-zero reads) are
    /// never cached. The sentinel page number `u64::MAX` is unreachable
    /// (real page numbers top out at `u64::MAX / PAGE_SIZE`).
    recent: Cell<[(u64, usize); 2]>,
    bytes_written: u64,
    /// Pre-update images of cache lines about to be modified by
    /// `arm`/`disarm` effects within the current macro instruction. The
    /// timing model's token detector reads these so a line fill observes
    /// the content hardware would fetch (the functional emulator runs
    /// one instruction ahead of the pipeline). Cleared after each batch.
    pre_line_images: PageMap<[u8; 64]>,
}

/// The `N` bytes of page `p` at `off`. Invariant: `off + N <= PAGE_SIZE`
/// (the scalar fast paths check it), so the slice is exactly `N` long.
#[inline]
fn le_bytes<const N: usize>(p: &[u8; PAGE_SIZE as usize], off: usize) -> [u8; N] {
    let mut b = [0u8; N];
    b.copy_from_slice(&p[off..off + N]);
    b
}

impl Default for GuestMemory {
    fn default() -> GuestMemory {
        GuestMemory {
            frames: Vec::new(),
            table: PageMap::default(),
            recent: Cell::new([(u64::MAX, 0); 2]),
            bytes_written: 0,
            pre_line_images: PageMap::default(),
        }
    }
}

impl GuestMemory {
    /// Creates an empty (all-zero) address space.
    pub fn new() -> GuestMemory {
        GuestMemory::default()
    }

    /// Frame index of page `pno` from the translation cache.
    #[inline]
    fn cached(&self, pno: u64) -> Option<usize> {
        let [newest, older] = self.recent.get();
        if newest.0 == pno {
            Some(newest.1)
        } else if older.0 == pno {
            Some(older.1)
        } else {
            None
        }
    }

    /// Caches a resident page's translation, dropping the older entry.
    #[inline]
    fn remember(&self, pno: u64, idx: usize) {
        let [newest, _] = self.recent.get();
        self.recent.set([(pno, idx), newest]);
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let pno = addr / PAGE_SIZE;
        let idx = match self.cached(pno) {
            Some(idx) => idx,
            None => {
                let idx = *self.table.get(&pno)?;
                self.remember(pno, idx);
                idx
            }
        };
        Some(&self.frames[idx])
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let pno = addr / PAGE_SIZE;
        let idx = match self.cached(pno) {
            Some(idx) => idx,
            None => {
                let idx = match self.table.get(&pno) {
                    Some(&i) => i,
                    None => {
                        let i = self.frames.len();
                        self.frames.push(Box::new([0u8; PAGE_SIZE as usize]));
                        self.table.insert(pno, i);
                        i
                    }
                };
                self.remember(pno, idx);
                idx
            }
        };
        &mut self.frames[idx]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.bytes_written += 1;
        self.page_mut(addr)[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Largest run of addresses starting at `addr` that stays within one
    /// page and does not wrap the address space, capped at `len`.
    fn chunk_len(addr: u64, len: u64) -> u64 {
        let in_page = PAGE_SIZE - addr % PAGE_SIZE;
        // Distance to the top of the address space (saturates at
        // `addr == 0`, where no real buffer can reach the cap anyway).
        let to_wrap = (u64::MAX - addr).saturating_add(1);
        len.min(in_page).min(to_wrap)
    }

    /// Reads `buf.len()` bytes starting at `addr`, a page-sized chunk at
    /// a time (wrapping at the top of the address space like the
    /// per-byte path did).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut buf = buf;
        while !buf.is_empty() {
            let n = Self::chunk_len(addr, buf.len() as u64) as usize;
            let (head, rest) = buf.split_at_mut(n);
            let off = (addr % PAGE_SIZE) as usize;
            match self.page(addr) {
                Some(p) => head.copy_from_slice(&p[off..off + n]),
                None => head.fill(0),
            }
            addr = addr.wrapping_add(n as u64);
            buf = rest;
        }
    }

    /// Writes `bytes` starting at `addr`, a page-sized chunk at a time.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let n = Self::chunk_len(addr, bytes.len() as u64) as usize;
            let off = (addr % PAGE_SIZE) as usize;
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            self.bytes_written += n as u64;
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Reads a little-endian scalar of the given width.
    ///
    /// Scalars that stay within one page (the overwhelmingly common case
    /// — pages end on 4 KiB boundaries, so no wrap either) take one
    /// lookup and a width-specialised fixed-size copy; a variable-length
    /// copy here would lower to a `memcpy` call on the hottest path of
    /// the whole simulator.
    #[inline]
    pub fn read_scalar(&self, addr: u64, size: MemSize) -> u64 {
        let n = size.bytes() as usize;
        let off = (addr % PAGE_SIZE) as usize;
        if off + n <= PAGE_SIZE as usize {
            let Some(p) = self.page(addr) else { return 0 };
            return match size {
                MemSize::B1 => u64::from(p[off]),
                MemSize::B2 => u64::from(u16::from_le_bytes(le_bytes(p, off))),
                MemSize::B4 => u64::from(u32::from_le_bytes(le_bytes(p, off))),
                MemSize::B8 => u64::from_le_bytes(le_bytes(p, off)),
            };
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..n]);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `size` bytes of `val`, little-endian (same
    /// single-page fast path as [`GuestMemory::read_scalar`]).
    #[inline]
    pub fn write_scalar(&mut self, addr: u64, val: u64, size: MemSize) {
        let n = size.bytes() as usize;
        let off = (addr % PAGE_SIZE) as usize;
        if off + n <= PAGE_SIZE as usize {
            let p = self.page_mut(addr);
            match size {
                MemSize::B1 => p[off] = val as u8,
                MemSize::B2 => p[off..off + 2].copy_from_slice(&(val as u16).to_le_bytes()),
                MemSize::B4 => p[off..off + 4].copy_from_slice(&(val as u32).to_le_bytes()),
                MemSize::B8 => p[off..off + 8].copy_from_slice(&val.to_le_bytes()),
            }
            self.bytes_written += n as u64;
        } else {
            let bytes = val.to_le_bytes();
            self.write_bytes(addr, &bytes[..n]);
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_scalar(addr, MemSize::B8)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_scalar(addr, val as u64, MemSize::B4);
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_scalar(addr, val, MemSize::B8);
    }

    /// Fills `len` bytes starting at `addr` with `byte`, a page-sized
    /// chunk at a time.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        let mut addr = addr;
        let mut left = len;
        while left > 0 {
            let n = Self::chunk_len(addr, left);
            let off = (addr % PAGE_SIZE) as usize;
            self.page_mut(addr)[off..off + n as usize].fill(byte);
            self.bytes_written += n;
            addr = addr.wrapping_add(n);
            left -= n;
        }
    }

    /// Copies `len` bytes from `src` to `dst` (handles overlap like
    /// `memmove`) without a temporary heap buffer: chunks are bounced
    /// through a small stack buffer, copying forwards when `dst < src`
    /// and backwards otherwise so an earlier chunk never clobbers bytes
    /// a later chunk still has to read.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) {
        const CHUNK: usize = 256;
        let mut buf = [0u8; CHUNK];
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(CHUNK as u64);
            // Forward chunk order reads ahead of writes when dst < src;
            // backward order does when dst > src (dst == src is a plain
            // rewrite either way, preserving the bytes_written count).
            let off = if dst < src { done } else { len - done - n };
            self.read_bytes(src.wrapping_add(off), &mut buf[..n as usize]);
            self.write_bytes(dst.wrapping_add(off), &buf[..n as usize]);
            done += n;
        }
    }

    /// Whether `len` bytes at `addr` equal `expect`.
    pub fn bytes_equal(&self, addr: u64, expect: &[u8]) -> bool {
        expect
            .iter()
            .enumerate()
            .all(|(i, &b)| self.read_u8(addr.wrapping_add(i as u64)) == b)
    }

    /// Number of pages actually materialised.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Total bytes written over the lifetime of this memory (a cheap
    /// activity counter used by tests).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Records the pre-update image of the 64-byte line containing
    /// `addr`, if not already recorded, for the timing model's benefit.
    /// Call *before* applying an `arm`/`disarm` functional effect.
    pub fn snapshot_line_pre_image(&mut self, addr: u64) {
        let line = addr & !63;
        if self.pre_line_images.contains_key(&line) {
            return;
        }
        let mut buf = [0u8; 64];
        self.read_bytes(line, &mut buf);
        self.pre_line_images.insert(line, buf);
    }

    /// The recorded pre-update image of the line containing `addr`.
    pub fn pre_line_image(&self, addr: u64) -> Option<&[u8; 64]> {
        self.pre_line_images.get(&(addr & !63))
    }

    /// Drops all recorded pre-images (done after the timing model has
    /// consumed the current instruction's micro-ops).
    pub fn clear_pre_images(&mut self) {
        self.pre_line_images.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_zero_reads() {
        let mem = GuestMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(0xffff_ffff_0000), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn scalar_round_trip_all_sizes() {
        let mut mem = GuestMemory::new();
        for (size, mask) in [
            (MemSize::B1, 0xffu64),
            (MemSize::B2, 0xffff),
            (MemSize::B4, 0xffff_ffff),
            (MemSize::B8, u64::MAX),
        ] {
            let val = 0x1122_3344_5566_7788u64;
            mem.write_scalar(0x500, val, size);
            assert_eq!(mem.read_scalar(0x500, size), val & mask);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut mem = GuestMemory::new();
        let addr = PAGE_SIZE - 4;
        mem.write_u64(addr, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u64(addr), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn copy_handles_overlap() {
        let mut mem = GuestMemory::new();
        mem.write_bytes(0x100, &[1, 2, 3, 4, 5]);
        mem.copy(0x102, 0x100, 5);
        let mut out = [0u8; 5];
        mem.read_bytes(0x102, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn copy_overlap_both_directions_beyond_chunk_size() {
        // Overlap distance smaller than the internal bounce buffer and
        // length larger than it: the chunked memmove must still behave
        // like a full-buffer copy in both directions.
        let src_data: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        for (dst, src) in [(0x1010u64, 0x1000u64), (0x1000, 0x1010)] {
            let mut mem = GuestMemory::new();
            mem.write_bytes(src, &src_data);
            let before = mem.bytes_written();
            mem.copy(dst, src, 600);
            assert_eq!(mem.bytes_written(), before + 600);
            let mut out = vec![0u8; 600];
            mem.read_bytes(dst, &mut out);
            assert_eq!(out, src_data);
        }
        // dst == src is a plain rewrite, not a skip.
        let mut mem = GuestMemory::new();
        mem.write_bytes(0x2000, &src_data);
        let before = mem.bytes_written();
        mem.copy(0x2000, 0x2000, 600);
        assert_eq!(mem.bytes_written(), before + 600);
        assert!(mem.bytes_equal(0x2000, &src_data));
    }

    #[test]
    fn bulk_ops_chunk_across_pages_and_wrap() {
        let mut mem = GuestMemory::new();
        // Spans three pages.
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| (i % 255) as u8).collect();
        mem.write_bytes(PAGE_SIZE - 50, &data);
        assert_eq!(mem.bytes_written(), data.len() as u64);
        let mut out = vec![0u8; data.len()];
        mem.read_bytes(PAGE_SIZE - 50, &mut out);
        assert_eq!(out, data);
        assert_eq!(mem.resident_pages(), 4); // 50 + 4096 + 4096 + 50 bytes
                                             // Wrap-around at the top of the address space, like the old
                                             // per-byte path.
        mem.write_bytes(u64::MAX - 1, &[0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(mem.read_u8(u64::MAX - 1), 0xaa);
        assert_eq!(mem.read_u8(u64::MAX), 0xbb);
        assert_eq!(mem.read_u8(0), 0xcc);
        assert_eq!(mem.read_u8(1), 0xdd);
        let mut wrapped = [0u8; 4];
        mem.read_bytes(u64::MAX - 1, &mut wrapped);
        assert_eq!(wrapped, [0xaa, 0xbb, 0xcc, 0xdd]);
        mem.fill(u64::MAX, 3, 0x7e);
        assert_eq!(mem.read_u8(u64::MAX), 0x7e);
        assert_eq!(mem.read_u8(0), 0x7e);
        assert_eq!(mem.read_u8(1), 0x7e);
    }

    #[test]
    fn fill_writes_every_byte() {
        let mut mem = GuestMemory::new();
        mem.fill(0x10, 64, 0xaa);
        assert!(mem.bytes_equal(0x10, &[0xaa; 64]));
        assert_eq!(mem.read_u8(0x0f), 0);
        assert_eq!(mem.read_u8(0x50), 0);
    }

    #[test]
    fn scalars_ending_exactly_at_a_page_end_stay_on_the_fast_path() {
        // `off + n == PAGE_SIZE` is the last offset the single-page path
        // takes; one byte further crosses into the next page.
        for size in [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8] {
            let mut mem = GuestMemory::new();
            let n = size.bytes();
            let mask = u64::MAX >> (64 - 8 * n);
            let val = 0x8877_6655_4433_2211u64;
            mem.write_scalar(PAGE_SIZE - n, val, size);
            assert_eq!(mem.resident_pages(), 1, "{size}");
            assert_eq!(mem.read_scalar(PAGE_SIZE - n, size), val & mask, "{size}");
            if n > 1 {
                mem.write_scalar(2 * PAGE_SIZE - n + 1, val, size);
                assert_eq!(mem.resident_pages(), 3, "{size}");
                assert_eq!(mem.read_scalar(2 * PAGE_SIZE - n + 1, size), val & mask);
            }
        }
    }

    #[test]
    fn translation_cache_survives_three_alternating_pages() {
        // Three pages round-robin through a two-entry cache: every
        // access misses it, and every value must still come back.
        let mut mem = GuestMemory::new();
        let pages = [0x10u64, 0x7_0000, 0x3];
        for round in 0..4u64 {
            for (i, &pno) in pages.iter().enumerate() {
                let addr = pno * PAGE_SIZE + 8 * round;
                mem.write_u64(addr, round * 10 + i as u64);
            }
        }
        for round in 0..4u64 {
            for (i, &pno) in pages.iter().enumerate() {
                let addr = pno * PAGE_SIZE + 8 * round;
                assert_eq!(mem.read_u64(addr), round * 10 + i as u64);
            }
        }
        assert_eq!(mem.resident_pages(), 3);
    }

    #[test]
    fn writes_land_in_their_own_page_while_another_is_cached() {
        let mut mem = GuestMemory::new();
        let (a, b) = (0x1000u64, 0x9000u64);
        mem.write_u64(a, 1);
        // `b` is absent: the read misses without caching it.
        assert_eq!(mem.read_u64(b), 0);
        // Writing `b` while `a` is cached materialises `b`, not `a`.
        mem.write_u64(b, 2);
        assert_eq!(mem.read_u64(a), 1);
        assert_eq!(mem.read_u64(b), 2);
        // And the other way round, with both now cached.
        mem.write_u64(a, 3);
        assert_eq!(mem.read_u64(b), 2);
        assert_eq!(mem.read_u64(a), 3);
        // A third page evicts one of them; both still read back.
        mem.write_u64(0x5000, 4);
        assert_eq!((mem.read_u64(a), mem.read_u64(b)), (3, 2));
        assert_eq!(mem.read_u64(0x5000), 4);
        assert_eq!(mem.resident_pages(), 3);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = GuestMemory::new();
        mem.write_u32(0x40, 0x0403_0201);
        assert_eq!(mem.read_u8(0x40), 1);
        assert_eq!(mem.read_u8(0x43), 4);
    }
}
