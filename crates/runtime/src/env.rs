use rest_core::{
    DetectTiming, ProtectionBackend, RestException, RestExceptionKind, SiteTable, Token, TokenWidth,
};
use rest_isa::{GuestMemory, MemSize};

/// Scratch line used to charge the extra store beats of the
/// naive-wide-arm ablation (outside every real data region).
const NAIVE_ARM_SCRATCH: u64 = 0x3f00_0000;
use crate::shadow;
use crate::traffic::TrafficRecorder;
use crate::violation::{AsanReport, Violation};

/// The mutable machine context runtime services operate in.
///
/// Bundles the functional memory, the traffic recorder, and the active
/// protection backend so allocators and libc models can perform
/// *recorded, checked* guest-memory operations through one interface.
#[derive(Debug)]
pub struct RtEnv<'a> {
    /// Functional guest memory.
    pub mem: &'a mut GuestMemory,
    /// Micro-op recorder for the timing pipeline.
    pub rec: &'a mut TrafficRecorder,
    /// The active protection backend (armed set / tag map / signing
    /// registry, behind one seam).
    pub backend: &'a mut dyn ProtectionBackend,
    /// The system token.
    pub token: &'a Token,
    /// Check recorded accesses through the backend (hardware-protected
    /// schemes: REST with real hardware, MTE, PA).
    pub check_backend: bool,
    /// Check recorded accesses against shadow memory (ASan interception
    /// paths).
    pub check_shadow: bool,
    /// PerfectHW limit study: arms/disarms degrade to single stores.
    pub perfect_hw: bool,
    /// Ablation: arms write the token value eagerly (w/8 stores) instead
    /// of the paper's lazy write-on-eviction single-cycle arm.
    pub naive_wide_arm: bool,
    /// PC of the guest instruction (the `ecall`) that entered the
    /// runtime. Checks performed on the program's behalf — memcpy range
    /// walks, free validation — report faults at this PC, so deferred
    /// MTE-async faults carry the triggering call site rather than a
    /// synthetic runtime PC.
    pub guest_pc: u64,
    /// Per-allocation-site attribution table, when profiling is on.
    pub sites: Option<&'a mut SiteTable>,
}

impl<'a> RtEnv<'a> {
    /// Token width in force.
    pub fn token_width(&self) -> TokenWidth {
        self.token.width()
    }

    // --- unchecked (trusted, allocator-internal) recorded accesses ---

    /// Recorded 8-byte load of allocator metadata.
    pub fn load_u64(&mut self, addr: u64) -> u64 {
        self.rec.load(addr, 8);
        self.mem.read_u64(addr)
    }

    /// Recorded 8-byte store of allocator metadata.
    pub fn store_u64(&mut self, addr: u64, val: u64) {
        self.rec.store(addr, 8);
        self.mem.write_u64(addr, val);
    }

    // --- checked (untrusted-range) recorded accesses ---

    fn check(&mut self, ptr: u64, size: u64, store: bool) -> Result<(), Violation> {
        let addr = self.backend.canonical_addr(ptr);
        if self.check_backend {
            let had_deferred = self.backend.has_deferred();
            let fault = self.backend.check_access(ptr, size, store, self.guest_pc);
            if let Some(s) = self.sites.as_deref_mut() {
                s.note_check(addr, 0, self.backend.tags_pointers());
                if fault.is_some() {
                    s.note_fault(addr);
                } else if !had_deferred && self.backend.has_deferred() {
                    s.note_deferred(addr);
                }
            }
            if let Some(fault) = fault {
                return Err(fault.into());
            }
        }
        if self.check_shadow {
            let classified = shadow::classify_access(self.mem, addr, size);
            if let Some(s) = self.sites.as_deref_mut() {
                s.note_check(addr, 0, false);
                if classified.is_err() {
                    s.note_fault(addr);
                }
            }
            if let Err(kind) = classified {
                return Err(Violation::Asan(AsanReport {
                    kind,
                    addr,
                    size,
                    pc: self.guest_pc,
                }));
            }
        }
        Ok(())
    }

    /// Backend validation of a pointer outside the checked load/store
    /// path (the hardened allocators' free validation). Faults report
    /// at the calling guest PC and are attributed like any other check.
    pub fn backend_validate(&mut self, ptr: u64, len: u64) -> Option<rest_core::BackendFault> {
        let addr = self.backend.canonical_addr(ptr);
        let had_deferred = self.backend.has_deferred();
        let fault = self.backend.check_access(ptr, len, false, self.guest_pc);
        if let Some(s) = self.sites.as_deref_mut() {
            s.note_check(addr, 0, self.backend.tags_pointers());
            if fault.is_some() {
                s.note_fault(addr);
            } else if !had_deferred && self.backend.has_deferred() {
                s.note_deferred(addr);
            }
        }
        fault
    }

    /// Registers a successful allocation of `len` user bytes at the
    /// (possibly tagged) pointer `ptr`, attributed to the calling guest
    /// PC. No-op when site attribution is off.
    pub fn note_alloc_site(&mut self, ptr: u64, len: u64) {
        let base = self.backend.canonical_addr(ptr);
        if let Some(s) = self.sites.as_deref_mut() {
            s.note_alloc(self.guest_pc, base, len);
        }
    }

    /// Records a free of the allocation at `ptr` against its site.
    pub fn note_free_site(&mut self, ptr: u64) {
        let base = self.backend.canonical_addr(ptr);
        if let Some(s) = self.sites.as_deref_mut() {
            s.note_free(base);
        }
    }

    /// Recorded load through the active safety checks. `ptr` may carry
    /// backend metadata in its upper bits (MTE tag, PAC); memory and the
    /// recorder see the canonical address.
    ///
    /// # Errors
    ///
    /// Returns the scheme's violation if `[addr, addr+size)` touches a
    /// token slot (REST), a mismatched tag granule (MTE), fails pointer
    /// authentication (PA), or hits poisoned shadow (ASan interception).
    pub fn checked_load(&mut self, ptr: u64, size: MemSize) -> Result<u64, Violation> {
        self.check(ptr, size.bytes(), false)?;
        let addr = self.backend.canonical_addr(ptr);
        self.rec.load(addr, size.bytes());
        Ok(self.mem.read_scalar(addr, size))
    }

    /// Recorded store through the active safety checks.
    ///
    /// # Errors
    ///
    /// As for [`RtEnv::checked_load`], with the store-kind violation.
    pub fn checked_store(&mut self, ptr: u64, val: u64, size: MemSize) -> Result<(), Violation> {
        self.check(ptr, size.bytes(), true)?;
        let addr = self.backend.canonical_addr(ptr);
        self.rec.store(addr, size.bytes());
        self.mem.write_scalar(addr, val, size);
        Ok(())
    }

    // --- token operations ---

    /// The armed set behind the backend. Token operations are only
    /// reachable from the REST allocator and stackguard, whose backend
    /// always carries one.
    fn armed_mut(&mut self) -> &mut rest_core::ArmedSet {
        self.backend
            .armed_set_mut()
            .expect("token operation on a backend without an armed set")
    }

    /// The REST exception for a failed runtime `arm`/`disarm` of the
    /// slot at `addr`, raised at the calling guest PC with the precision
    /// the same guest instruction's exception would have.
    fn token_fault(&self, kind: RestExceptionKind, addr: u64) -> Violation {
        let precise = kind.always_precise() || self.backend.timing(false) == DetectTiming::Precise;
        Violation::Rest(RestException::new(kind, addr, self.guest_pc, precise))
    }

    /// Arms the token slot at `addr`: records the `arm`, writes the token
    /// bytes into functional memory, and updates the armed set. Under
    /// PerfectHW this degrades to one recorded 8-byte store.
    ///
    /// # Errors
    ///
    /// A misaligned `addr` is the `arm` instruction's REST exception.
    pub fn arm_slot(&mut self, addr: u64) -> Result<(), Violation> {
        let w = self.token_width().bytes();
        if self.perfect_hw {
            self.rec.store(addr, 8);
            return Ok(());
        }
        for line in (addr & !63..addr + w).step_by(64) {
            self.mem.snapshot_line_pre_image(line);
        }
        self.rec.arm(addr, w);
        if self.naive_wide_arm {
            // Eager value write (the naive wide-store arm the paper's
            // lazy design avoids): charge the extra w/8−1 store beats as
            // store-port/SQ occupancy against a scratch line, so the
            // cost is modelled without perturbing token-bit state.
            for _ in 1..w / 8 {
                self.rec.store(NAIVE_ARM_SCRATCH, 8);
            }
        }
        if let Err(kind) = self.armed_mut().arm(addr) {
            return Err(self.token_fault(kind, addr));
        }
        self.mem.write_bytes(addr, self.token.bytes());
        Ok(())
    }

    /// Disarms the token slot at `addr`, zeroing it (the hardware zeroes
    /// the slot as part of the disarm). Under PerfectHW this degrades to
    /// one recorded 8-byte store that still zeroes the slot functionally.
    ///
    /// # Errors
    ///
    /// A slot that holds no token is the `disarm` instruction's REST
    /// exception: the guest can disarm an allocator redzone itself, so
    /// the allocator's later disarm of it finds the slot empty.
    pub fn disarm_slot(&mut self, addr: u64) -> Result<(), Violation> {
        let w = self.token_width().bytes();
        if self.perfect_hw {
            self.rec.store(addr, 8);
            self.mem.fill(addr, w, 0);
            return Ok(());
        }
        for line in (addr & !63..addr + w).step_by(64) {
            self.mem.snapshot_line_pre_image(line);
        }
        self.rec.disarm(addr, w);
        if self.naive_wide_arm {
            for _ in 1..w / 8 {
                self.rec.store(NAIVE_ARM_SCRATCH, 8);
            }
        }
        if let Err(kind) = self.armed_mut().disarm(addr) {
            return Err(self.token_fault(kind, addr));
        }
        self.mem.fill(addr, w, 0);
        Ok(())
    }

    /// Arms every token slot in `[addr, addr+len)`, stopping at the
    /// first [`RtEnv::arm_slot`] error. Both ends must be token-aligned.
    pub fn arm_range(&mut self, addr: u64, len: u64) -> Result<(), Violation> {
        let w = self.token_width().bytes();
        debug_assert_eq!(addr % w, 0, "arm_range base misaligned");
        debug_assert_eq!(len % w, 0, "arm_range length misaligned");
        for a in (addr..addr + len).step_by(w as usize) {
            self.arm_slot(a)?;
        }
        Ok(())
    }

    /// Disarms (and zeroes) every token slot in `[addr, addr+len)`,
    /// stopping at the first [`RtEnv::disarm_slot`] error.
    pub fn disarm_range(&mut self, addr: u64, len: u64) -> Result<(), Violation> {
        let w = self.token_width().bytes();
        debug_assert_eq!(addr % w, 0, "disarm_range base misaligned");
        debug_assert_eq!(len % w, 0, "disarm_range length misaligned");
        for a in (addr..addr + len).step_by(w as usize) {
            self.disarm_slot(a)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::{Mode, RestBackend, RestExceptionKind};

    struct Fixture {
        mem: GuestMemory,
        rec: TrafficRecorder,
        backend: RestBackend,
        token: Token,
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut rng = StdRng::seed_from_u64(11);
            let token = Token::generate(TokenWidth::B64, &mut rng);
            Fixture {
                mem: GuestMemory::new(),
                rec: TrafficRecorder::new(),
                backend: RestBackend::new(TokenWidth::B64, Mode::Secure),
                token,
            }
        }

        fn env(&mut self, check_backend: bool, perfect_hw: bool) -> RtEnv<'_> {
            RtEnv {
                mem: &mut self.mem,
                rec: &mut self.rec,
                backend: &mut self.backend,
                token: &self.token,
                check_backend,
                check_shadow: false,
                perfect_hw,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            }
        }
    }

    #[test]
    fn arm_slot_writes_token_and_updates_set() {
        let mut f = Fixture::new();
        let mut env = f.env(true, false);
        env.arm_slot(0x4000_0000).unwrap();
        assert!(env.backend.armed_set().unwrap().is_armed(0x4000_0000));
        assert!(env.mem.bytes_equal(0x4000_0000, env.token.bytes()));
        let _ = env;
        let ops = f.rec.drain();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, rest_isa::OpKind::Arm);
    }

    #[test]
    fn checked_access_faults_on_armed_slot() {
        let mut f = Fixture::new();
        let mut env = f.env(true, false);
        env.arm_slot(0x4000_0040).unwrap();
        let err = env.checked_load(0x4000_0040, MemSize::B8).unwrap_err();
        assert!(matches!(err, Violation::Rest(e) if e.kind == RestExceptionKind::TokenLoad));
        let err = env
            .checked_store(0x4000_0078, 1, MemSize::B8)
            .unwrap_err();
        assert!(matches!(err, Violation::Rest(e) if e.kind == RestExceptionKind::TokenStore));
        // Adjacent unarmed memory is fine.
        assert!(env.checked_load(0x4000_0080, MemSize::B8).is_ok());
    }

    #[test]
    fn disarm_zeroes_slot() {
        let mut f = Fixture::new();
        let mut env = f.env(true, false);
        env.arm_slot(0x4000_0000).unwrap();
        env.disarm_slot(0x4000_0000).unwrap();
        assert!(!env.backend.armed_set().unwrap().is_armed(0x4000_0000));
        assert!(env.mem.bytes_equal(0x4000_0000, &[0u8; 64]));
        assert!(env.checked_load(0x4000_0000, MemSize::B8).is_ok());
    }

    #[test]
    fn perfect_hw_degrades_to_single_stores_without_protection() {
        let mut f = Fixture::new();
        let mut env = f.env(true, true);
        env.arm_slot(0x4000_0000).unwrap();
        assert!(!env.backend.armed_set().unwrap().is_armed(0x4000_0000));
        assert!(env.checked_load(0x4000_0000, MemSize::B8).is_ok());
        env.disarm_slot(0x4000_0000).unwrap();
        let _ = env;
        let ops = f.rec.drain();
        // arm -> store, checked_load -> load, disarm -> store.
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].kind, rest_isa::OpKind::Store);
        assert_eq!(ops[1].kind, rest_isa::OpKind::Load);
        assert_eq!(ops[2].kind, rest_isa::OpKind::Store);
    }

    #[test]
    fn range_helpers_cover_every_slot() {
        let mut f = Fixture::new();
        let mut env = f.env(true, false);
        env.arm_range(0x4000_0000, 256).unwrap();
        assert_eq!(env.backend.armed_set().unwrap().armed_count(), 4);
        env.disarm_range(0x4000_0000, 256).unwrap();
        assert_eq!(env.backend.armed_set().unwrap().armed_count(), 0);
        let _ = env;
        assert_eq!(f.rec.drain().len(), 8);
    }

    #[test]
    fn mte_backend_checks_and_canonicalizes_through_env() {
        use rest_core::{MteBackend, MteMode};
        let mut rng = StdRng::seed_from_u64(11);
        let token = Token::generate(TokenWidth::B64, &mut rng);
        let mut mem = GuestMemory::new();
        let mut rec = TrafficRecorder::new();
        let mut backend = MteBackend::new(MteMode::Sync, 5);
        let tagged = backend.on_alloc(0x4000_0100, 32);
        let mut env = RtEnv {
            mem: &mut mem,
            rec: &mut rec,
            backend: &mut backend,
            token: &token,
            check_backend: true,
            check_shadow: false,
            perfect_hw: false,
            naive_wide_arm: false,
            guest_pc: 0,
            sites: None,
        };
        env.checked_store(tagged, 0xbeef, MemSize::B8).unwrap();
        assert_eq!(env.checked_load(tagged, MemSize::B8).unwrap(), 0xbeef);
        // Functional memory saw the canonical address, not the tagged one.
        assert_eq!(env.mem.read_u64(0x4000_0100), 0xbeef);
        // Walking off the end with a nonzero key faults (unless the
        // drawn tag is 0 and aliases untagged memory — not with seed 5).
        let tag = (tagged >> rest_core::backend::TAG_SHIFT) & 0xF;
        assert_ne!(tag, 0, "seed 5 draws a nonzero first tag");
        let err = env.checked_load(tagged + 32, MemSize::B8).unwrap_err();
        assert!(matches!(err, Violation::Tag(_)), "{err:?}");
    }

    #[test]
    fn runtime_checks_report_the_calling_guest_pc() {
        let mut f = Fixture::new();
        let mut env = f.env(true, false);
        env.guest_pc = 0x1_2340;
        env.arm_slot(0x4000_0040).unwrap();
        let err = env.checked_load(0x4000_0040, MemSize::B8).unwrap_err();
        assert!(
            matches!(err, Violation::Rest(e) if e.pc == 0x1_2340),
            "runtime check should fault at the guest call site, got {err:?}"
        );
    }

    #[test]
    fn site_table_attributes_env_checks_and_deferred_latches() {
        use rest_core::{MteBackend, MteMode, SiteTable};
        let mut rng = StdRng::seed_from_u64(11);
        let token = Token::generate(TokenWidth::B64, &mut rng);
        let mut mem = GuestMemory::new();
        let mut rec = TrafficRecorder::new();
        let mut backend = MteBackend::new(MteMode::Async, 5);
        let tagged = backend.on_alloc(0x4000_0100, 32);
        let mut sites = SiteTable::new();
        {
            let mut env = RtEnv {
                mem: &mut mem,
                rec: &mut rec,
                backend: &mut backend,
                token: &token,
                check_backend: true,
                check_shadow: false,
                perfect_hw: false,
                naive_wide_arm: false,
                guest_pc: 0x1_0080,
                sites: Some(&mut sites),
            };
            env.note_alloc_site(tagged, 32);
            env.checked_store(tagged, 1, MemSize::B8).unwrap();
            // Async MTE: the out-of-range store latches a deferred
            // fault instead of raising, and the latch is charged to
            // the site.
            env.checked_store(tagged + 32, 1, MemSize::B8).unwrap();
            assert!(env.backend.has_deferred());
        }
        let rows: Vec<_> = sites.rows().map(|(pc, c)| (pc, *c)).collect();
        assert_eq!(rows.len(), 2, "site + out-of-range pseudo-site: {rows:?}");
        assert_eq!(rows[1].0, 0x1_0080);
        assert_eq!(rows[1].1.allocs, 1);
        assert_eq!(rows[1].1.checks, 1);
        assert_eq!(rows[1].1.canonicalizations, 1);
        // The off-the-end granule lies outside the registered range.
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[0].1.deferred_latches, 1);
        assert_eq!(sites.total_checks(), backend.check_count());
    }
}
