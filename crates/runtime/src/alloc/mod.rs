//! The heap allocator every scheme runs on (§IV-A).
//!
//! The paper's REST allocator is ASan's allocator adapted: the same arena
//! (bump allocation from [`crate::HEAP_BASE`]), segregated free bins keyed
//! by chunk size, chunk header and FIFO quarantine, with tokens in place
//! of shadow poison. [`Heap`] is that one allocator for all five schemes.
//! `malloc` and `free` are written once; a scheme contributes only its
//! chunk layout, its ALU counts, its metadata placement (shadow poison,
//! armed redzones, or the backend's tag or signature), its free
//! validation, its retirement on free and its release from quarantine.
//! Measured differences therefore come from the *protection work* —
//! shadow poisoning vs. token arming vs. tagging vs. nothing — not from
//! incidental implementation divergence.

use std::collections::{HashMap, VecDeque};

use rest_core::backend::CANONICAL_MASK;

use crate::config::{RtConfig, Scheme};
use crate::env::RtEnv;
use crate::layout::{tag_addr, HEAP_BASE, SHADOW_GRANULE};
use crate::shadow;
use crate::violation::{AsanReport, AsanReportKind, Violation};

/// Header of a plain, MTE or PA chunk (size word + user-size word).
const HEADER: u64 = 16;
/// Allocation granule of a plain, MTE or PA chunk (the MTE tag granule).
const GRANULE: u64 = 16;
/// ASan's header, kept inside the left redzone as in real ASan.
const ASAN_HEADER: u64 = 32;
/// REST's header block: 32 B of metadata in a full token slot, so user
/// areas and redzones stay token-aligned.
const REST_HEADER: u64 = 64;
/// Offset of the quarantining schemes' chunk-state header word.
const STATE: u64 = 16;

/// Counters every allocator maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful `malloc`-family calls.
    pub allocs: u64,
    /// Successful `free` calls.
    pub frees: u64,
    /// Total user bytes handed out.
    pub bytes_requested: u64,
    /// Live user bytes right now.
    pub live_bytes: u64,
    /// Peak live user bytes.
    pub peak_live_bytes: u64,
    /// Bytes currently parked in the quarantine pool.
    pub quarantine_bytes: u64,
    /// Chunks released from quarantine back to the free pool.
    pub quarantine_evictions: u64,
    /// Invalid/double frees detected (hardened schemes only).
    pub bad_frees: u64,
    /// Chunks reused from the free bins (vs. fresh arena growth).
    pub reuses: u64,
}

/// What a scheme adds to the shared allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protection {
    /// The plain, performance-first baseline (the paper's "unsafe"
    /// binaries with the stock libc allocator).
    ///
    /// Layout: `[16 B header][user data]`, 16-byte granularity,
    /// segregated free bins with immediate reuse, **no redzones, no
    /// quarantine, no validation**. A double free corrupts the free list
    /// exactly the way real fast allocators are corrupted — the attack
    /// scenarios depend on this behaviour, so do not "fix" it.
    Plain,
    /// The AddressSanitizer allocator model.
    ///
    /// Every allocation is wrapped in shadow-poisoned redzones:
    ///
    /// ```text
    /// [ header+left redzone : 0xfa ][ user : 0x00/partial ][ right rz : 0xfb ]
    /// ```
    ///
    /// Freed chunks are poisoned `0xfd` and parked in a FIFO quarantine
    /// instead of the free pool, deferring reuse to widen the
    /// use-after-free detection window. This reproduces the paper's
    /// "allocator designed with security in mind … slower than other
    /// allocators" (overhead source 1).
    Asan,
    /// The REST heap allocator (§IV-A, Figure 6B).
    ///
    /// Adapted from ASan's allocator, with tokens instead of shadow
    /// metadata:
    ///
    /// ```text
    /// [ header ][ left rz: tokens ][ user (token-aligned) ][ right rz: tokens ]
    /// ```
    ///
    /// * `malloc` arms both redzones (spatial protection); redzones
    ///   isolate allocations from each other *and from the metadata*.
    /// * `free` fills the entire chunk body with tokens and parks it in
    ///   the quarantine pool (temporal protection): dangling-pointer
    ///   accesses and the data they'd touch stay blacklisted until reuse.
    /// * On release from quarantine the chunk is disarmed, which zeroes
    ///   it — the paper's **relaxed invariant**: free-pool chunks are
    ///   *zeroed*, not blacklisted (unlike ASan, which keeps its free
    ///   pool poisoned), trading arm/disarm work for no
    ///   uninitialised-data leaks.
    ///
    /// Because detection is in hardware, no access instrumentation
    /// exists anywhere — this allocator is the *entire* software overhead
    /// of REST heap protection, which is why the paper's Figure 7
    /// overheads track the allocator component of Figure 3.
    Rest {
        /// Token width in bytes, which fixes the alignment of user areas
        /// and redzones (the token bytes come from the `RtEnv`).
        width: u64,
        /// Decoy-token sprinkling (§V-C): fresh arena growth leaves
        /// pseudo-randomly placed armed slots in the gaps between chunks,
        /// so attacks that jump *over* redzones at a fixed stride still
        /// land on tokens. Placement is a deterministic hash of the chunk
        /// address.
        sprinkle: bool,
        /// The REST-aware fast pool (§VIII: "an allocator designed to
        /// take advantage of REST properties could be significantly
        /// faster"). Chunks released from quarantine stay *fully armed*
        /// in the free pool instead of being disarmed; reuse then only
        /// disarms the user area (which zeroes it — the
        /// uninitialised-data-leak guarantee is preserved) and skips
        /// re-arming the still-armed redzones. This removes the
        /// release-time disarm sweep and the redzone re-arming entirely
        /// for recycled chunks.
        fast_pool: bool,
    },
    /// Lock-and-key tagging instead of redzones.
    ///
    /// Layout is the plain allocator's, deliberately, because MTE's
    /// protection is the tag, not the layout: no redzones
    /// (adjacent-overflow detection comes from the neighbouring chunk's
    /// different tag), no quarantine (use-after-free detection comes from
    /// retag-on-free). Each malloc draws a fresh 4-bit tag through the
    /// backend, tags the user granules, and returns the key in the
    /// pointer's top byte; each free retags, so dangling pointers
    /// mismatch with probability 15/16. The header granule keeps tag 0,
    /// so a tagged pointer walking backwards into it mismatches — the
    /// header doubles as an underflow guard.
    ///
    /// Tag maintenance traffic is charged like ASan's shadow writes: one
    /// recorded 8-byte store to tag storage per
    /// [`meta_store_span`](rest_core::ProtectionBackend::meta_store_span)
    /// bytes of user data (the `DC GVA`-style bulk-tagging path).
    Mte,
    /// Pointer signing instead of redzones.
    ///
    /// Layout is the plain allocator's: PA's protection lives entirely in
    /// the pointer. malloc signs the returned pointer with an 8-bit PAC
    /// over (base, generation) through the backend; free authenticates
    /// the incoming pointer — catching double and invalid frees — then
    /// bumps the generation so dangling pointers no longer authenticate.
    /// All metadata is registry state in the backend; unlike MTE there is
    /// no tag storage traffic, only the PACIA/AUTIA-style computations
    /// charged as ALU work.
    Pa,
}

impl Protection {
    /// Chunk geometry for a `size`-byte request.
    fn layout(self, size: u64) -> Layout {
        let user = size.max(1);
        match self {
            Protection::Plain | Protection::Mte | Protection::Pa => Layout {
                left: HEADER,
                user_pad: round_up(user, GRANULE),
                right: 0,
            },
            Protection::Asan => {
                let rz = redzone_for(size, SHADOW_GRANULE);
                Layout {
                    left: round_up(ASAN_HEADER.max(rz), SHADOW_GRANULE),
                    user_pad: round_up(user, SHADOW_GRANULE),
                    right: rz,
                }
            }
            Protection::Rest { width, .. } => {
                let rz = redzone_for(size, width);
                Layout {
                    left: REST_HEADER + rz,
                    user_pad: round_up(user, width),
                    right: rz,
                }
            }
        }
    }

    /// ALU micro-ops charged by `malloc` and by `free`.
    fn alu(self) -> (u64, u64) {
        match self {
            // Size classing + fast-path bookkeeping.
            Protection::Plain => (6, 4),
            // Size classing, layout arithmetic, stats, and the security
            // checks of a hardened path (ASan's allocator runs tens of
            // instructions per call beyond the metadata stores). REST's
            // allocator is ASan's adapted: same hardened-path length.
            Protection::Asan | Protection::Rest { .. } => (24, 14),
            // Size classing + IRG tag draw; the free's tag check.
            Protection::Mte => (8, 6),
            // Size classing + PACIA sign computation; AUTIA on free.
            Protection::Pa => (10, 6),
        }
    }
}

/// Chunk geometry: `[left][user, padded][right]`. The user pointer is
/// `chunk + left`; the left part holds the header.
#[derive(Debug, Clone, Copy)]
struct Layout {
    left: u64,
    user_pad: u64,
    right: u64,
}

impl Layout {
    fn total(self) -> u64 {
        self.left + self.user_pad + self.right
    }
}

/// Chunk lifecycle state, stored in the quarantining schemes' header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Free = 0,
    Live = 1,
    Quarantined = 2,
}

/// Host-side record of a chunk handed out by a hardened scheme.
#[derive(Debug, Clone, Copy)]
struct ChunkInfo {
    chunk: u64,
    user: u64,
    layout: Layout,
    state: ChunkState,
}

/// The heap allocator, operating on simulated guest memory.
///
/// All memory traffic it performs is recorded through the [`RtEnv`] so
/// it is charged to the simulated pipeline — the "Allocator" component
/// of the paper's Figure 3.
///
/// # Example
///
/// ```
/// use rest_runtime::{Heap, RtConfig};
///
/// let heap = Heap::new(&RtConfig::asan());
/// assert_eq!(heap.stats().allocs, 0);
/// ```
#[derive(Debug)]
pub struct Heap {
    protection: Protection,
    arena: Arena,
    /// Freed chunks awaiting release (ASan and REST).
    quarantine: Option<Quarantine>,
    /// User pointer -> chunk. Empty for the plain heap, which keeps no
    /// host-side map.
    live: HashMap<u64, ChunkInfo>,
    stats: AllocStats,
}

impl Heap {
    /// The heap `cfg`'s scheme runs on.
    pub fn new(cfg: &RtConfig) -> Heap {
        let protection = match cfg.scheme {
            Scheme::Plain => Protection::Plain,
            Scheme::Asan => Protection::Asan,
            Scheme::Rest => Protection::Rest {
                width: cfg.token_width.bytes(),
                sprinkle: cfg.sprinkle_tokens,
                fast_pool: cfg.fast_pool_allocator,
            },
            Scheme::Mte => Protection::Mte,
            Scheme::Pa => Protection::Pa,
        };
        let quarantined = matches!(protection, Protection::Asan | Protection::Rest { .. });
        Heap {
            protection,
            arena: Arena::new(HEAP_BASE),
            quarantine: quarantined.then(|| Quarantine::new(cfg.quarantine_bytes)),
            live: HashMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// Allocates `size` user bytes; returns the user pointer (carrying
    /// the MTE key or the PAC in its top bits), or 0 when the arena is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// REST's arm or disarm of a slot the guest has tampered with.
    pub fn malloc(&mut self, env: &mut RtEnv<'_>, size: u64) -> Result<u64, Violation> {
        let layout = self.protection.layout(size);
        let total = layout.total();
        env.rec.alu(self.protection.alu().0);
        let (chunk, reused) = match self.arena.pop(total) {
            Some(c) => {
                env.rec.load(c, 8); // bin-list unlink reads the header
                (c, true)
            }
            None => match self.arena.grow(total) {
                Some(c) => {
                    self.sprinkle(env, c)?;
                    (c, false)
                }
                None => return Ok(0),
            },
        };
        let user = chunk + layout.left;
        env.store_u64(chunk, total);
        env.store_u64(chunk + 8, size);
        if self.quarantine.is_some() {
            env.store_u64(chunk + STATE, ChunkState::Live as u64);
        }
        let ptr = match self.protection {
            Protection::Plain => user,
            Protection::Asan => {
                // Poison both redzones, unpoison the user area (with a
                // partial tail granule when size % 8 != 0).
                shadow::poison_region(env, chunk, layout.left, shadow::POISON_HEAP_LEFT);
                shadow::unpoison_region(env, user, size.max(1));
                let tail = user + layout.user_pad;
                shadow::poison_region(env, tail, layout.right, shadow::POISON_HEAP_RIGHT);
                user
            }
            Protection::Rest { fast_pool, .. } => {
                if fast_pool && reused {
                    // The chunk arrives fully armed; disarm (and thereby
                    // zero) just the user area. The redzones stay armed.
                    env.disarm_range(user, layout.user_pad)?;
                } else {
                    // Free-pool chunks arrive zeroed (relaxed invariant),
                    // fresh chunks are demand-zero: either way the
                    // redzones are unarmed before this.
                    env.arm_range(chunk + REST_HEADER, layout.left - REST_HEADER)?;
                    env.arm_range(user + layout.user_pad, layout.right)?;
                }
                user
            }
            Protection::Mte | Protection::Pa => {
                // Draw a tag and tag the granules (the header granule
                // stays tag 0), or register the padded area and sign:
                // either way the returned pointer carries the key, and
                // intra-padding overreads pass — the granularity limit.
                let keyed = env.backend.on_alloc(user, layout.user_pad);
                record_meta_stores(env, user, layout.user_pad);
                keyed
            }
        };
        if self.protection != Protection::Plain {
            let info = ChunkInfo {
                chunk,
                user: size,
                layout,
                state: ChunkState::Live,
            };
            self.live.insert(user, info);
        }
        note_alloc(&mut self.stats, size, reused);
        Ok(ptr)
    }

    /// Frees the allocation at `ptr`.
    ///
    /// # Errors
    ///
    /// Hardened schemes report double and invalid frees: ASan and REST
    /// from the chunk's live state, MTE and PA from the backend's check
    /// of the pointer's key. The plain heap silently corrupts its free
    /// list instead, as real libc does — attack scenarios rely on this.
    pub fn free(&mut self, env: &mut RtEnv<'_>, ptr: u64) -> Result<(), Violation> {
        if ptr == 0 {
            return Ok(());
        }
        if self.protection == Protection::Plain {
            return self.free_unvalidated(env, ptr);
        }
        env.rec.alu(self.protection.alu().1);
        let base = self.base(ptr);
        let info = match self.protection {
            Protection::Mte | Protection::Pa => {
                // The freeing pointer's key is checked against the
                // granule tag (the LDG the hardened free performs) or
                // authenticated against the registry (AUTIA). A stale
                // pointer — double free, or free of a reused chunk —
                // fails unless the retag drew the same tag (1/16) or the
                // PACs collide (1/256).
                if env.backend.meta_store_span().is_some() {
                    env.rec.load(tag_addr(base), 8);
                }
                if let Some(fault) = env.backend_validate(ptr, 1) {
                    self.stats.bad_frees += 1;
                    return Err(fault.into());
                }
                match self.live.get_mut(&base) {
                    Some(info) => info,
                    // Not a chunk this heap handed out (an unkeyed pointer
                    // into unmanaged memory passes the check):
                    // plain-allocator behaviour, push nothing.
                    None => return Ok(()),
                }
            }
            _ => match self.live.get_mut(&base) {
                Some(info) if info.state == ChunkState::Live => info,
                _ => {
                    // Double or invalid free: the chunk is not live. This
                    // is the allocator's own (software) validation —
                    // present in ASan's allocator, which REST reuses
                    // (§IV-A).
                    self.stats.bad_frees += 1;
                    return Err(Violation::Asan(AsanReport {
                        kind: AsanReportKind::BadFree,
                        addr: ptr,
                        size: 0,
                        pc: 0,
                    }));
                }
            },
        };
        let ChunkInfo {
            chunk,
            user,
            layout,
            ..
        } = *info;
        info.state = if self.quarantine.is_some() {
            env.rec.load(chunk, 8); // header read
            env.store_u64(chunk + STATE, ChunkState::Quarantined as u64);
            ChunkState::Quarantined
        } else {
            ChunkState::Free
        };
        match self.protection {
            // Poison the entire user region as freed memory.
            Protection::Asan => {
                let len = layout.user_pad + layout.right;
                shadow::poison_region(env, base, len, shadow::POISON_FREED);
            }
            // Blacklist the freed user area (the redzones are already
            // armed): any dangling access now raises in hardware.
            Protection::Rest { .. } => env.arm_range(base, layout.user_pad)?,
            // MTE retags and PA bumps the generation, so dangling uses
            // mismatch (the plain heap returned above).
            _ => {
                env.backend.on_free(base, layout.user_pad);
                record_meta_stores(env, base, layout.user_pad);
            }
        }
        note_free(&mut self.stats, user);
        let Some(quarantine) = self.quarantine.as_mut() else {
            self.arena.push(chunk, layout.total());
            return Ok(());
        };
        // Quarantine, releasing the oldest chunks past the budget.
        quarantine.push(chunk, layout.total());
        while let Some((old, total)) = quarantine.evict() {
            self.stats.quarantine_evictions += 1;
            // ASan's released chunks return to the bins still poisoned;
            // the next malloc rewrites their shadow. The REST fast pool
            // keeps them fully armed: release costs nothing, and reuse
            // pays the user-area disarm it needs anyway.
            if let Protection::Rest {
                fast_pool: false, ..
            } = self.protection
            {
                // Disarm the entire chunk body; disarm zeroes each slot,
                // so the chunk re-enters the free pool zeroed (the
                // relaxed invariant) and uninitialised-data leaks are
                // impossible.
                env.disarm_range(old + REST_HEADER, total - REST_HEADER)?;
            }
            env.store_u64(old + STATE, ChunkState::Free as u64);
            self.arena.push(old, total);
        }
        self.stats.quarantine_bytes = quarantine.bytes;
        Ok(())
    }

    /// The plain heap's free: no validation whatsoever. The header is
    /// read back from guest memory, so a double free pushes the chunk
    /// into the bin twice and two future mallocs alias — the classic
    /// libc corruption the hardened schemes exist to stop.
    fn free_unvalidated(&mut self, env: &mut RtEnv<'_>, ptr: u64) -> Result<(), Violation> {
        // Wild pointers wrap, as the hardware's address arithmetic does.
        let chunk = ptr.wrapping_sub(HEADER);
        let total = env.load_u64(chunk);
        let user = env.load_u64(chunk.wrapping_add(8));
        env.rec.alu(self.protection.alu().1);
        self.arena.push(chunk, total);
        note_free(&mut self.stats, user);
        Ok(())
    }

    /// Decoy tokens (REST with sprinkling): after roughly every other
    /// fresh chunk, grow a gap of one to three slots, chosen by a hash of
    /// the chunk address, and arm its first slot.
    fn sprinkle(&mut self, env: &mut RtEnv<'_>, chunk: u64) -> Result<(), Violation> {
        let Protection::Rest {
            width,
            sprinkle: true,
            ..
        } = self.protection
        else {
            return Ok(());
        };
        let h = chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        if h & 1 == 0 {
            let slots = 1 + (h >> 1) % 3;
            if let Some(gap) = self.arena.grow(slots * width) {
                env.arm_range(gap, width)?;
            }
        }
        Ok(())
    }

    /// The chunk's user address behind `ptr`: MTE and PA pointers carry
    /// their key in the top bits.
    fn base(&self, ptr: u64) -> u64 {
        match self.protection {
            Protection::Mte | Protection::Pa => ptr & CANONICAL_MASK,
            _ => ptr,
        }
    }

    /// User size of the live allocation at `ptr`, if `ptr` is one. Always
    /// `None` for the plain heap: it keeps no host-side map, and callers
    /// that need the size read the header through guest memory.
    pub fn usable_size(&self, ptr: u64) -> Option<u64> {
        self.live
            .get(&self.base(ptr))
            .filter(|i| i.state == ChunkState::Live)
            .map(|i| i.user)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }
}

/// Records the tag-maintenance stores for `len` bytes at `base`: one
/// 8-byte tag-storage store per `meta_store_span` bytes, none when the
/// backend keeps no tag storage.
fn record_meta_stores(env: &mut RtEnv<'_>, base: u64, len: u64) {
    if let Some(span) = env.backend.meta_store_span() {
        for a in (base..base + len).step_by(span as usize) {
            env.rec.store(tag_addr(a), 8);
        }
    }
}

/// Arena limit: 256 MiB of heap address space (re-exported to guest
/// tooling as [`crate::layout::HEAP_SPAN`]).
const HEAP_LIMIT: u64 = crate::layout::HEAP_SPAN;

/// Bump pointer plus segregated free bins keyed by total chunk size.
#[derive(Debug)]
struct Arena {
    brk: u64,
    end: u64,
    bins: HashMap<u64, Vec<u64>>,
}

impl Arena {
    fn new(base: u64) -> Arena {
        Arena {
            brk: base,
            end: base + HEAP_LIMIT,
            bins: HashMap::new(),
        }
    }

    /// Pops a recycled chunk of exactly `total` bytes, if any.
    fn pop(&mut self, total: u64) -> Option<u64> {
        self.bins.get_mut(&total)?.pop()
    }

    /// Returns a chunk to its bin.
    fn push(&mut self, chunk: u64, total: u64) {
        self.bins.entry(total).or_default().push(chunk);
    }

    /// Bump-allocates `total` fresh bytes, or `None` past the arena
    /// limit.
    fn grow(&mut self, total: u64) -> Option<u64> {
        if self.brk + total > self.end {
            return None;
        }
        let chunk = self.brk;
        self.brk += total;
        Some(chunk)
    }
}

/// FIFO quarantine holding freed chunks until the byte budget overflows.
#[derive(Debug)]
struct Quarantine {
    fifo: VecDeque<(u64, u64)>, // (chunk, total)
    bytes: u64,
    budget: u64,
}

impl Quarantine {
    fn new(budget: u64) -> Quarantine {
        Quarantine {
            fifo: VecDeque::new(),
            bytes: 0,
            budget,
        }
    }

    /// Parks a chunk.
    fn push(&mut self, chunk: u64, total: u64) {
        self.fifo.push_back((chunk, total));
        self.bytes += total;
    }

    /// Releases the oldest chunk while the pool is over budget.
    fn evict(&mut self) -> Option<(u64, u64)> {
        if self.bytes <= self.budget {
            return None;
        }
        let (chunk, total) = self.fifo.pop_front()?;
        self.bytes -= total;
        Some((chunk, total))
    }
}

/// Redzone size for a `user`-byte allocation, at `granule` alignment:
/// scales with allocation size (ASan-style), clamped to [granule·max(16),
/// 2048], rounded up to the granule.
pub fn redzone_for(user: u64, granule: u64) -> u64 {
    let base = (user / 4).clamp(16.max(granule), 2048);
    base.div_ceil(granule) * granule
}

/// Rounds `v` up to a multiple of `granule`.
fn round_up(v: u64, granule: u64) -> u64 {
    v.div_ceil(granule.max(1)) * granule.max(1)
}

fn note_alloc(stats: &mut AllocStats, size: u64, reused: bool) {
    stats.allocs += 1;
    stats.bytes_requested += size;
    stats.live_bytes += size;
    stats.peak_live_bytes = stats.peak_live_bytes.max(stats.live_bytes);
    if reused {
        stats.reuses += 1;
    }
}

fn note_free(stats: &mut AllocStats, size: u64) {
    stats.frees += 1;
    stats.live_bytes = stats.live_bytes.saturating_sub(size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::{ProtectionBackend, Token};
    use rest_isa::GuestMemory;

    use crate::traffic::TrafficRecorder;

    /// Guest memory, recorder, backend and token for one heap.
    struct Fx<B> {
        mem: GuestMemory,
        rec: TrafficRecorder,
        backend: B,
        token: Token,
        cfg: RtConfig,
    }

    impl<B: ProtectionBackend> Fx<B> {
        /// The fixture and a fresh heap for `cfg`, over `backend`.
        fn new(cfg: RtConfig, backend: B) -> (Fx<B>, Heap) {
            let mut rng = StdRng::seed_from_u64(3);
            let heap = Heap::new(&cfg);
            let fx = Fx {
                mem: GuestMemory::new(),
                rec: TrafficRecorder::new(),
                backend,
                token: Token::generate(cfg.token_width, &mut rng),
                cfg,
            };
            (fx, heap)
        }

        fn env(&mut self) -> RtEnv<'_> {
            RtEnv {
                mem: &mut self.mem,
                rec: &mut self.rec,
                backend: &mut self.backend,
                token: &self.token,
                check_backend: self.cfg.checks_in_backend(),
                check_shadow: false,
                perfect_hw: false,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            }
        }
    }

    #[test]
    fn redzone_scales_and_clamps() {
        assert_eq!(redzone_for(8, 8), 16); // min 16
        assert_eq!(redzone_for(8, 64), 64); // min one token
        assert_eq!(redzone_for(4096, 64), 1024); // size/4
        assert_eq!(redzone_for(1 << 20, 64), 2048); // clamped
        assert_eq!(redzone_for(100, 8), 32); // 25 -> 32

        // Always granule multiples.
        for user in [0u64, 1, 7, 100, 5000, 1 << 22] {
            for g in [8u64, 16, 32, 64] {
                assert_eq!(redzone_for(user, g) % g, 0);
            }
        }
    }

    #[test]
    fn arena_reuses_and_grows() {
        let mut a = Arena::new(0x1000);
        assert_eq!(a.pop(128), None);
        let c1 = a.grow(128).unwrap();
        assert_eq!(c1, 0x1000);
        let c2 = a.grow(128).unwrap();
        assert_eq!(c2, 0x1080);
        a.push(c1, 128);
        assert_eq!(a.pop(128), Some(c1));
        assert_eq!(a.pop(128), None);
    }

    #[test]
    fn arena_limit() {
        let mut a = Arena::new(0);
        assert!(a.grow(HEAP_LIMIT + 1).is_none());
        assert!(a.grow(HEAP_LIMIT).is_some());
        assert!(a.grow(1).is_none());
    }

    #[test]
    fn quarantine_fifo_evicts_oldest_over_budget() {
        let mut q = Quarantine::new(100);
        q.push(1, 40);
        assert_eq!(q.evict(), None);
        q.push(2, 40);
        assert_eq!(q.evict(), None);
        q.push(3, 40);
        assert_eq!(q.evict(), Some((1, 40)));
        assert_eq!(q.evict(), None);
        assert_eq!(q.bytes, 80);
        assert_eq!(q.fifo.len(), 2);
        // A huge chunk flushes everything including itself if needed.
        q.push(4, 500);
        let evicted: Vec<_> = std::iter::from_fn(|| q.evict()).collect();
        assert_eq!(evicted, vec![(2, 40), (3, 40), (4, 500)]);
        assert_eq!(q.bytes, 0);
    }

    mod plain {
        use super::*;
        use rest_core::NullBackend;

        fn fx() -> (Fx<NullBackend>, Heap) {
            Fx::new(RtConfig::plain(), NullBackend)
        }

        #[test]
        fn malloc_returns_distinct_aligned_pointers() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 24).unwrap();
            let p2 = a.malloc(&mut env, 24).unwrap();
            assert_ne!(p1, p2);
            assert_eq!(p1 % GRANULE, 0);
            assert!(p1 >= HEAP_BASE);
            assert_eq!(a.stats().allocs, 2);
        }

        #[test]
        fn free_enables_immediate_reuse() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 100).unwrap();
            a.free(&mut env, p1).unwrap();
            let p2 = a.malloc(&mut env, 100).unwrap();
            assert_eq!(p1, p2, "plain allocator reuses immediately");
            assert_eq!(a.stats().reuses, 1);
        }

        #[test]
        fn double_free_causes_aliasing_allocations() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            let p = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p).unwrap();
            a.free(&mut env, p).unwrap(); // silently corrupts the bin
            let q1 = a.malloc(&mut env, 64).unwrap();
            let q2 = a.malloc(&mut env, 64).unwrap();
            assert_eq!(q1, q2, "two live allocations alias after double free");
        }

        #[test]
        fn free_of_null_is_noop() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            a.free(&mut env, 0).unwrap();
            assert_eq!(a.stats().frees, 0);
        }

        #[test]
        fn traffic_is_recorded() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            a.malloc(&mut env, 32).unwrap();
            let _ = env;
            assert!(fx.rec.len() >= 3, "header stores + alu must be recorded");
        }

        #[test]
        fn oom_returns_null() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            let p = a.malloc(&mut env, HEAP_LIMIT).unwrap();
            assert_eq!(p, 0);
        }

        #[test]
        fn free_of_a_wild_low_pointer_reads_a_wrapped_header() {
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            a.free(&mut env, 8).unwrap();
            assert_eq!(a.stats().frees, 1);
        }

        #[test]
        fn usable_size_is_unknown() {
            // do_realloc copies by `usable_size`: the plain heap must
            // not claim to know it.
            let (mut fx, mut a) = fx();
            let mut env = fx.env();
            let p = a.malloc(&mut env, 40).unwrap();
            assert_eq!(a.usable_size(p), None);
        }
    }

    mod asan {
        use super::*;
        use rest_core::NullBackend;

        fn fx(quarantine: u64) -> (Fx<NullBackend>, Heap) {
            Fx::new(RtConfig::asan().with_quarantine(quarantine), NullBackend)
        }

        #[test]
        fn allocation_is_bracketed_by_poison() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 40).unwrap();
            // User area addressable.
            assert!(shadow::classify_access(env.mem, p, 40).is_ok());
            // One byte past the end: right redzone.
            assert_eq!(
                shadow::classify_access(env.mem, p + 40, 1),
                Err(AsanReportKind::HeapRedzone)
            );
            // One byte before: left redzone.
            assert_eq!(
                shadow::classify_access(env.mem, p - 1, 1),
                Err(AsanReportKind::HeapRedzone)
            );
        }

        #[test]
        fn freed_memory_reports_use_after_free() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p).unwrap();
            assert_eq!(
                shadow::classify_access(env.mem, p, 8),
                Err(AsanReportKind::UseAfterFree)
            );
        }

        #[test]
        fn quarantine_defers_reuse() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p1).unwrap();
            let p2 = a.malloc(&mut env, 64).unwrap();
            assert_ne!(p1, p2, "quarantine must prevent immediate reuse");
            assert_eq!(a.stats().quarantine_evictions, 0);
            assert_eq!(
                a.stats().quarantine_bytes,
                Protection::Asan.layout(64).total()
            );
        }

        #[test]
        fn quarantine_eviction_releases_chunks_for_reuse() {
            // Budget below two chunks: the second free evicts the first.
            let (mut fx, mut a) = fx(200);
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 64).unwrap();
            let p2 = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p1).unwrap();
            a.free(&mut env, p2).unwrap();
            assert!(a.stats().quarantine_evictions >= 1);
            // New allocation of the same class reuses an evicted chunk.
            let p3 = a.malloc(&mut env, 64).unwrap();
            assert!(p3 == p1 || p3 == p2);
            // And the reused chunk is addressable again.
            assert!(shadow::classify_access(env.mem, p3, 64).is_ok());
        }

        #[test]
        fn double_free_is_reported() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 32).unwrap();
            a.free(&mut env, p).unwrap();
            let err = a.free(&mut env, p).unwrap_err();
            assert!(matches!(
                err,
                Violation::Asan(r) if r.kind == AsanReportKind::BadFree
            ));
            assert_eq!(a.stats().bad_frees, 1);
        }

        #[test]
        fn invalid_free_is_reported() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let err = a.free(&mut env, 0xdead_0000).unwrap_err();
            assert!(matches!(
                err,
                Violation::Asan(r) if r.kind == AsanReportKind::BadFree
            ));
        }

        #[test]
        fn usable_size_tracks_live_state() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 33).unwrap();
            assert_eq!(a.usable_size(p), Some(33));
            a.free(&mut env, p).unwrap();
            assert_eq!(a.usable_size(p), None);
        }

        #[test]
        fn partial_tail_granule_catches_intra_granule_overflow() {
            let (mut fx, mut a) = fx(1 << 20);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 13).unwrap();
            assert!(shadow::classify_access(env.mem, p, 13).is_ok());
            assert_eq!(
                shadow::classify_access(env.mem, p + 13, 1),
                Err(AsanReportKind::PartialGranule)
            );
        }
    }

    mod rest {
        use super::*;
        use rest_core::{Mode, RestBackend, RestExceptionKind, TokenWidth};
        use rest_isa::MemSize;

        fn fx(quarantine: u64, width: TokenWidth) -> (Fx<RestBackend>, Heap) {
            let cfg = RtConfig::rest(Mode::Secure, false)
                .with_quarantine(quarantine)
                .with_token_width(width);
            Fx::new(cfg, RestBackend::new(width, Mode::Secure))
        }

        #[test]
        fn allocation_is_bracketed_by_tokens() {
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B64);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 100).unwrap();
            assert_eq!(p % 64, 0, "user area must be token-aligned");
            // In-bounds accesses are fine.
            assert!(env.checked_load(p, MemSize::B8).is_ok());
            assert!(env.checked_load(p + 96, MemSize::B4).is_ok());
            // Past the padded end: right redzone token.
            let err = env.checked_load(p + 128, MemSize::B8).unwrap_err();
            assert!(matches!(err, Violation::Rest(_)));
            // Before the start: left redzone token.
            let err = env.checked_load(p - 8, MemSize::B8).unwrap_err();
            assert!(matches!(err, Violation::Rest(_)));
        }

        #[test]
        fn padding_gap_is_a_known_false_negative() {
            // §V-C "False Negatives": an overflow small enough to stay
            // inside the alignment padding is not detected (and reads
            // zeroes, so nothing leaks on the heap).
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B64);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 100).unwrap();
            // Bytes 100..128 are padding: access does NOT fault…
            let v = env.checked_load(p + 100, MemSize::B8).unwrap();
            // …but the pad is zeroed, so nothing of value leaks.
            assert_eq!(v, 0);
        }

        #[test]
        fn freed_chunk_is_fully_blacklisted_until_reuse() {
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B64);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 64).unwrap();
            env.checked_store(p, 0xdead, MemSize::B8).unwrap();
            a.free(&mut env, p).unwrap();
            // Dangling read now hits a token (UAF caught).
            let err = env.checked_load(p, MemSize::B8).unwrap_err();
            assert!(matches!(err, Violation::Rest(e) if e.kind == RestExceptionKind::TokenLoad));
            // And reuse is deferred by the quarantine.
            let p2 = a.malloc(&mut env, 64).unwrap();
            assert_ne!(p, p2);
        }

        #[test]
        fn quarantine_release_zeroes_the_chunk() {
            let (mut fx, mut a) = fx(400, TokenWidth::B64); // tiny budget
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 64).unwrap();
            env.checked_store(p1, 0x5ec4e7, MemSize::B8).unwrap();
            a.free(&mut env, p1).unwrap();
            // Another free forces p1's chunk out of quarantine.
            let p2 = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p2).unwrap();
            assert!(a.stats().quarantine_evictions >= 1);
            // Reallocate p1's chunk: contents must be zero (no uninit leak).
            let p3 = a.malloc(&mut env, 64).unwrap();
            assert_eq!(p3, p1);
            let v = env.checked_load(p3, MemSize::B8).unwrap();
            assert_eq!(v, 0, "relaxed invariant: free-pool chunks are zeroed");
            assert_eq!(a.stats().reuses, 1);
        }

        #[test]
        fn double_free_is_reported() {
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B64);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 48).unwrap();
            a.free(&mut env, p).unwrap();
            let err = a.free(&mut env, p).unwrap_err();
            assert!(matches!(
                err,
                Violation::Asan(r) if r.kind == AsanReportKind::BadFree
            ));
        }

        #[test]
        fn narrow_tokens_shrink_padding() {
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B16);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 20).unwrap();
            assert_eq!(p % 16, 0);
            // With 16 B tokens the pad after 20 bytes is 12 bytes; byte 32
            // is already a token.
            assert!(env.checked_load(p + 20, MemSize::B4).is_ok());
            let err = env.checked_load(p + 32, MemSize::B8).unwrap_err();
            assert!(matches!(err, Violation::Rest(_)));
        }

        #[test]
        fn metadata_is_separated_from_user_data_by_redzones() {
            let (mut fx, mut a) = fx(1 << 20, TokenWidth::B64);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 64).unwrap();
            // Walking backwards from the user pointer, the attacker hits a
            // token before reaching the header.
            let mut hit_token = false;
            let mut addr = p - 8;
            for _ in 0..64 {
                match env.checked_load(addr, MemSize::B8) {
                    Err(Violation::Rest(_)) => {
                        hit_token = true;
                        break;
                    }
                    _ => addr -= 8,
                }
            }
            assert!(hit_token, "header must be guarded by the left redzone");
        }

        #[test]
        fn alloc_free_cycles_preserve_armed_set_consistency() {
            let (mut fx, mut a) = fx(2048, TokenWidth::B64);
            let mut env = fx.env();
            let mut ptrs = Vec::new();
            for i in 0..20 {
                let p = a.malloc(&mut env, 32 + (i % 5) * 48).unwrap();
                assert_ne!(p, 0);
                ptrs.push(p);
            }
            for p in ptrs {
                a.free(&mut env, p).unwrap();
            }
            // Everything still armed is accounted for by quarantined chunks
            // and live redzones; disarms never panicked, so the allocator
            // and the armed set agree.
            assert!(env.backend.armed_set().unwrap().armed_count() > 0);
            assert_eq!(a.stats().allocs, 20);
            assert_eq!(a.stats().frees, 20);
        }
    }

    mod mte {
        use super::*;
        use rest_core::backend::TAG_SHIFT;
        use rest_core::{MteBackend, MteMode};

        fn fx(seed: u64) -> (Fx<MteBackend>, Heap) {
            let backend = MteBackend::new(MteMode::Sync, seed);
            Fx::new(RtConfig::mte(MteMode::Sync), backend)
        }

        #[test]
        fn malloc_returns_tagged_pointer_over_tagged_granules() {
            let (mut fx, mut a) = fx(5);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 48).unwrap();
            let canon = p & CANONICAL_MASK;
            let tag = ((p >> TAG_SHIFT) & 0xF) as u8;
            assert_eq!(canon % GRANULE, 0);
            assert!(canon >= HEAP_BASE);
            let _ = env;
            assert_eq!(fx.backend.granule_tag(canon), tag);
            assert_eq!(fx.backend.granule_tag(canon + 32), tag);
            // Header granule stays untagged: a backwards walk mismatches.
            assert_eq!(fx.backend.granule_tag(canon - HEADER), 0);
            assert_eq!(a.usable_size(p), Some(48));
        }

        #[test]
        fn free_retags_and_double_free_usually_faults() {
            // Seeds are deterministic: find one where the retag draws a
            // different tag so the double free is detected (the aliasing
            // seed is exercised by the statistical test in rest-core).
            let (mut fx, mut a) = fx(1);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 32).unwrap();
            a.free(&mut env, p).unwrap();
            let _ = env;
            let old = ((p >> TAG_SHIFT) & 0xF) as u8;
            let new = fx.backend.granule_tag(p & CANONICAL_MASK);
            assert_ne!(old, new, "seed 1 must retag differently");
            let mut env = fx.env();
            let err = a.free(&mut env, p).unwrap_err();
            assert!(matches!(err, Violation::Tag(_)), "{err:?}");
            assert_eq!(a.stats().bad_frees, 1);
        }

        #[test]
        fn reuse_draws_a_fresh_tag_for_the_same_chunk() {
            let (mut fx, mut a) = fx(2);
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 100).unwrap();
            // Free with the matching key succeeds.
            a.free(&mut env, p1).unwrap();
            let p2 = a.malloc(&mut env, 100).unwrap();
            assert_eq!(p1 & CANONICAL_MASK, p2 & CANONICAL_MASK, "chunk reused");
            assert_eq!(a.stats().reuses, 1);
        }

        #[test]
        fn tag_maintenance_traffic_reaches_tag_storage() {
            let (mut fx, mut a) = fx(4);
            let mut env = fx.env();
            a.malloc(&mut env, 256).unwrap();
            let _ = env;
            let ops = fx.rec.drain();
            let tag_stores = ops
                .iter()
                .filter_map(|o| o.mem)
                .filter(|m| {
                    m.kind == rest_isa::MemAccessKind::Store && m.addr >= crate::layout::TAG_BASE
                })
                .count();
            // 256 user bytes = 4 lines of tag stores.
            assert_eq!(tag_stores, 4);
        }

        #[test]
        fn free_of_null_is_noop() {
            let (mut fx, mut a) = fx(6);
            let mut env = fx.env();
            a.free(&mut env, 0).unwrap();
            assert_eq!(a.stats().frees, 0);
        }

        #[test]
        fn oom_returns_null() {
            let (mut fx, mut a) = fx(7);
            let mut env = fx.env();
            let p = a.malloc(&mut env, HEAP_LIMIT).unwrap();
            assert_eq!(p, 0);
        }
    }

    mod pa {
        use super::*;
        use rest_core::backend::PAC_SHIFT;
        use rest_core::PacBackend;

        fn fx(seed: u64) -> (Fx<PacBackend>, Heap) {
            Fx::new(RtConfig::pa(), PacBackend::new(seed))
        }

        #[test]
        fn malloc_signs_and_the_signed_pointer_authenticates() {
            let (mut fx, mut a) = fx(11);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 40).unwrap();
            let canon = p & CANONICAL_MASK;
            assert!(canon >= HEAP_BASE);
            assert_ne!(p, canon, "pointer must carry a PAC");
            assert!(env.backend.check_access(p, 8, false, 0).is_none());
            // The padded tail (40 -> 48) authenticates: granularity limit.
            assert!(env.backend.check_access(p + 44, 4, false, 0).is_none());
            // Past the padded area it does not.
            assert!(env.backend.check_access(p + 48, 8, false, 0).is_some());
            assert_eq!(a.usable_size(p), Some(40));
        }

        #[test]
        fn double_free_fails_authentication() {
            let (mut fx, mut a) = fx(12);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p).unwrap();
            let err = a.free(&mut env, p).unwrap_err();
            assert!(matches!(err, Violation::Pac(_)), "{err:?}");
            assert_eq!(a.stats().bad_frees, 1);
        }

        #[test]
        fn reuse_signs_with_a_new_generation() {
            let (mut fx, mut a) = fx(13);
            let mut env = fx.env();
            let p1 = a.malloc(&mut env, 64).unwrap();
            a.free(&mut env, p1).unwrap();
            let p2 = a.malloc(&mut env, 64).unwrap();
            assert_eq!(p1 & CANONICAL_MASK, p2 & CANONICAL_MASK, "chunk reused");
            let pac1 = (p1 >> PAC_SHIFT) & 0xFF;
            let pac2 = (p2 >> PAC_SHIFT) & 0xFF;
            assert_ne!(pac1, pac2, "seed 13 must not collide generations");
            // The dangling pointer no longer authenticates; the fresh one
            // does.
            assert!(env.backend.check_access(p1, 8, false, 0).is_some());
            assert!(env.backend.check_access(p2, 8, false, 0).is_none());
        }

        #[test]
        fn pa_records_no_tag_storage_traffic() {
            // PA's backend keeps no tag storage: malloc and free record
            // no meta stores and no tag load.
            let (mut fx, mut a) = fx(16);
            let mut env = fx.env();
            let p = a.malloc(&mut env, 256).unwrap();
            a.free(&mut env, p).unwrap();
            let _ = env;
            let tag_ops = fx
                .rec
                .drain()
                .iter()
                .filter_map(|o| o.mem)
                .filter(|m| m.addr >= crate::layout::TAG_BASE)
                .count();
            assert_eq!(tag_ops, 0);
        }

        #[test]
        fn free_of_null_is_noop() {
            let (mut fx, mut a) = fx(14);
            let mut env = fx.env();
            a.free(&mut env, 0).unwrap();
            assert_eq!(a.stats().frees, 0);
        }

        #[test]
        fn oom_returns_null() {
            let (mut fx, mut a) = fx(15);
            let mut env = fx.env();
            let p = a.malloc(&mut env, HEAP_LIMIT).unwrap();
            assert_eq!(p, 0);
        }
    }
}
