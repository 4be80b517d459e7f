use crate::alloc::{
    note_alloc, note_free, redzone_for, round_up, AllocStats, Allocator, Arena, ChunkInfo,
    ChunkState, LiveMap, Quarantine,
};
use crate::env::RtEnv;
use crate::layout::HEAP_BASE;
use crate::violation::{AsanReport, AsanReportKind, Violation};

/// Header block size. The header holds 32 B of metadata; a full token
/// slot is reserved so user areas and redzones stay token-aligned.
const HEADER: u64 = 64;

/// The REST heap allocator (§IV-A, Figure 6B).
///
/// Adapted from ASan's allocator, with tokens instead of shadow metadata:
///
/// ```text
/// [ header ][ left rz: tokens ][ user (token-aligned) ][ right rz: tokens ]
/// ```
///
/// * `malloc` arms both redzones (spatial protection); redzones isolate
///   allocations from each other *and from the metadata*.
/// * `free` fills the entire chunk body with tokens and parks it in the
///   quarantine pool (temporal protection): dangling-pointer accesses and
///   the data they'd touch stay blacklisted until reuse.
/// * On release from quarantine the chunk is disarmed, which zeroes it —
///   the paper's **relaxed invariant**: free-pool chunks are *zeroed*,
///   not blacklisted (unlike ASan, which keeps its free pool poisoned),
///   trading arm/disarm work for no uninitialised-data leaks.
///
/// Because detection is in hardware, no access instrumentation exists
/// anywhere — this allocator is the *entire* software overhead of REST
/// heap protection, which is why the paper's Figure 7 overheads track
/// the allocator component of Figure 3.
#[derive(Debug)]
pub struct RestAllocator {
    arena: Arena,
    quarantine: Quarantine,
    live: LiveMap,
    stats: AllocStats,
    width: u64,
    sprinkle: bool,
    fast_pool: bool,
}

impl RestAllocator {
    /// Creates the allocator for the given token width (bytes are taken
    /// from the `RtEnv`'s token at call time; the width fixes alignment).
    pub fn new(quarantine_bytes: u64, token_width_bytes: u64) -> RestAllocator {
        assert!(
            matches!(token_width_bytes, 16 | 32 | 64),
            "token width must be 16, 32 or 64 bytes"
        );
        RestAllocator {
            arena: Arena::new(HEAP_BASE),
            quarantine: Quarantine::new(quarantine_bytes),
            live: LiveMap::default(),
            stats: AllocStats::default(),
            width: token_width_bytes,
            sprinkle: false,
            fast_pool: false,
        }
    }

    /// Enables the REST-aware fast pool (§VIII: "an allocator designed
    /// to take advantage of REST properties could be significantly
    /// faster"). Chunks released from quarantine stay *fully armed* in
    /// the free pool instead of being disarmed; reuse then only disarms
    /// the user area (which zeroes it — the uninitialised-data-leak
    /// guarantee is preserved) and skips re-arming the still-armed
    /// redzones. This removes the release-time disarm sweep and the
    /// redzone re-arming entirely for recycled chunks.
    pub fn with_fast_pool(mut self) -> RestAllocator {
        self.fast_pool = true;
        self
    }

    /// Enables decoy-token sprinkling (§V-C): fresh arena growth leaves
    /// pseudo-randomly placed armed slots in the gaps between chunks, so
    /// attacks that jump *over* redzones at a fixed stride still land on
    /// tokens. Placement is a deterministic hash of the chunk address.
    pub fn with_sprinkle(mut self) -> RestAllocator {
        self.sprinkle = true;
        self
    }

    fn layout_for(&self, size: u64) -> (u64, u64, u64) {
        let rz = redzone_for(size, self.width);
        let user_pad = round_up(size.max(1), self.width);
        (rz, user_pad, rz)
    }

    /// Chunks currently parked in quarantine (for tests/benches).
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }
}

impl Allocator for RestAllocator {
    fn name(&self) -> &'static str {
        "rest"
    }

    fn malloc(&mut self, env: &mut RtEnv<'_>, size: u64) -> Result<u64, Violation> {
        let (left, user_pad, right) = self.layout_for(size);
        let total = HEADER + left + user_pad + right;
        // The REST allocator is ASan's allocator adapted (§IV-A): same
        // hardened-path length.
        env.rec.alu(24);
        let (chunk, reused) = match self.arena.pop(total) {
            Some(c) => {
                env.rec.load(c, 8);
                (c, true)
            }
            None => match self.arena.grow(HEAP_BASE, total) {
                Some(c) => {
                    if self.sprinkle {
                        // Decoy token after roughly every other fresh
                        // chunk, at a hash-derived slot offset.
                        let h = c.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                        if h & 1 == 0 {
                            let slots = 1 + (h >> 1) % 3;
                            if let Some(gap) =
                                self.arena.grow(HEAP_BASE, slots * self.width)
                            {
                                env.arm_range(gap, self.width)?;
                            }
                        }
                    }
                    (c, false)
                }
                None => return Ok(0),
            },
        };
        let user_ptr = chunk + HEADER + left;
        env.store_u64(chunk, total);
        env.store_u64(chunk + 8, size);
        env.store_u64(chunk + 16, ChunkState::Live as u64);
        if self.fast_pool && reused {
            // Fast pool: the chunk arrives fully armed; disarm (and
            // thereby zero) just the user area. The redzones stay armed
            // for free.
            env.disarm_range(user_ptr, user_pad)?;
        } else {
            // Arm the redzones. Free-pool chunks arrive zeroed (relaxed
            // invariant), fresh chunks are demand-zero: either way the
            // redzones are unarmed before this.
            env.arm_range(chunk + HEADER, left)?;
            env.arm_range(user_ptr + user_pad, right)?;
        }
        self.live.insert(
            user_ptr,
            ChunkInfo {
                chunk,
                total,
                user: size,
                left_rz: HEADER + left,
                state: ChunkState::Live,
            },
        );
        note_alloc(&mut self.stats, size, reused);
        Ok(user_ptr)
    }

    fn free(&mut self, env: &mut RtEnv<'_>, ptr: u64) -> Result<(), Violation> {
        if ptr == 0 {
            return Ok(());
        }
        env.rec.alu(14);
        let info = match self.live.get_mut(ptr) {
            Some(i) if i.state == ChunkState::Live => i,
            _ => {
                // Double or invalid free: the chunk is not live. This is
                // the allocator's own (software) validation — present in
                // ASan's allocator, which REST reuses (§IV-A).
                self.stats.bad_frees += 1;
                return Err(Violation::Asan(AsanReport {
                    kind: AsanReportKind::BadFree,
                    addr: ptr,
                    size: 0,
                    pc: 0,
                }));
            }
        };
        info.state = ChunkState::Quarantined;
        let info = *info;
        env.rec.load(info.chunk, 8);
        env.store_u64(info.chunk + 16, ChunkState::Quarantined as u64);
        // Blacklist the freed user area (the redzones are already armed):
        // any dangling access now raises in hardware.
        env.arm_range(ptr, info.total - info.left_rz - redzone_for(info.user, self.width))?;
        note_free(&mut self.stats, info.user);
        for (chunk, total) in self.quarantine.push(info.chunk, info.total) {
            self.stats.quarantine_evictions += 1;
            if self.fast_pool {
                // Fast pool: keep the chunk fully armed in the free
                // pool — release costs nothing; reuse pays the user-area
                // disarm it needs anyway.
                env.store_u64(chunk + 16, ChunkState::Free as u64);
            } else {
                // Disarm the entire chunk body; disarm zeroes each slot,
                // so the chunk re-enters the free pool zeroed (the
                // relaxed invariant) and uninitialised-data leaks are
                // impossible.
                env.disarm_range(chunk + HEADER, total - HEADER)?;
                env.store_u64(chunk + 16, ChunkState::Free as u64);
            }
            self.arena.push(chunk, total);
        }
        self.stats.quarantine_bytes = self.quarantine.bytes();
        Ok(())
    }

    fn usable_size(&self, ptr: u64) -> Option<u64> {
        self.live
            .get(ptr)
            .filter(|i| i.state == ChunkState::Live)
            .map(|i| i.user)
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::{Mode, RestBackend, RestExceptionKind, Token, TokenWidth};
    use rest_isa::{GuestMemory, MemSize};

    use crate::traffic::TrafficRecorder;
    use crate::violation::Violation;

    struct Fx {
        mem: GuestMemory,
        rec: TrafficRecorder,
        backend: RestBackend,
        token: Token,
    }

    impl Fx {
        fn new(width: TokenWidth) -> Fx {
            let mut rng = StdRng::seed_from_u64(33);
            Fx {
                mem: GuestMemory::new(),
                rec: TrafficRecorder::new(),
                backend: RestBackend::new(width, Mode::Secure),
                token: Token::generate(width, &mut rng),
            }
        }

        fn env(&mut self) -> RtEnv<'_> {
            RtEnv {
                mem: &mut self.mem,
                rec: &mut self.rec,
                backend: &mut self.backend,
                token: &self.token,
                check_backend: true,
                check_shadow: false,
                perfect_hw: false,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            }
        }
    }

    #[test]
    fn allocation_is_bracketed_by_tokens() {
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 64);
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
        // §V-C "False Negatives": an overflow small enough to stay inside
        // the alignment padding is not detected (and reads zeroes, so
        // nothing leaks on the heap).
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 64);
        let p = a.malloc(&mut env, 100).unwrap();
        // Bytes 100..128 are padding: access does NOT fault…
        let v = env.checked_load(p + 100, MemSize::B8).unwrap();
        // …but the pad is zeroed, so nothing of value leaks.
        assert_eq!(v, 0);
    }

    #[test]
    fn freed_chunk_is_fully_blacklisted_until_reuse() {
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 64);
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
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(400, 64); // tiny budget
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
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 64);
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
        let mut fx = Fx::new(TokenWidth::B16);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 16);
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
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(1 << 20, 64);
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
        let mut fx = Fx::new(TokenWidth::B64);
        let mut env = fx.env();
        let mut a = RestAllocator::new(2048, 64);
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
