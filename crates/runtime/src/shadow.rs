//! AddressSanitizer shadow memory.
//!
//! Every 8 bytes of application memory map to one shadow byte
//! (`shadow(a) = SHADOW_BASE + a/8`). A shadow byte of 0 means all eight
//! bytes are addressable; 1–7 means only that prefix is addressable; a
//! high (poison) value means none are, with the value encoding *why* —
//! which redzone or freed region the byte belongs to. This module
//! implements the mapping, the poison encoding, and the access
//! classification used both by the per-access instrumentation (overhead
//! component 3) and the libc interception (component 4).

use rest_isa::GuestMemory;

use crate::env::RtEnv;
use crate::layout::{shadow_addr, SHADOW_GRANULE};
use crate::violation::AsanReportKind;

/// Poison value: heap left redzone.
pub const POISON_HEAP_LEFT: u8 = 0xfa;
/// Poison value: heap right redzone.
pub const POISON_HEAP_RIGHT: u8 = 0xfb;
/// Poison value: freed (quarantined) heap memory.
pub const POISON_FREED: u8 = 0xfd;
/// Poison value: stack left redzone.
pub const POISON_STACK_LEFT: u8 = 0xf1;
/// Poison value: stack right redzone.
pub const POISON_STACK_RIGHT: u8 = 0xf3;

/// Classifies the poison value of a shadow byte.
fn kind_of_poison(value: u8) -> AsanReportKind {
    match value {
        POISON_FREED => AsanReportKind::UseAfterFree,
        POISON_STACK_LEFT | POISON_STACK_RIGHT => AsanReportKind::StackRedzone,
        POISON_HEAP_LEFT | POISON_HEAP_RIGHT => AsanReportKind::HeapRedzone,
        _ => AsanReportKind::PartialGranule,
    }
}

/// Pure check (no traffic recorded): is `[addr, addr+size)` fully
/// addressable per the shadow encoding?
///
/// Reads one shadow byte per 8-byte granule the access touches, as
/// ASan's instrumented check does. A granule's verdict is the verdict of
/// its first inaccessible accessed byte, so this returns exactly what a
/// byte-by-byte walk would.
///
/// # Errors
///
/// The report kind for the first inaccessible byte.
pub fn classify_access(mem: &GuestMemory, addr: u64, size: u64) -> Result<(), AsanReportKind> {
    // Inclusive end: an access ending at the top of the address space
    // must not wrap to an empty range.
    let last = addr.saturating_add(size.max(1) - 1);
    let mut a = addr;
    loop {
        // Last accessed byte inside `a`'s granule.
        let hi = (a | (SHADOW_GRANULE - 1)).min(last);
        let sv = mem.read_u8(shadow_addr(a));
        if sv >= SHADOW_GRANULE as u8 {
            return Err(kind_of_poison(sv));
        }
        // 1–7: only that prefix of the granule is addressable, so the
        // access fails iff its last byte here lies past the prefix.
        if sv != 0 && hi % SHADOW_GRANULE >= u64::from(sv) {
            return Err(AsanReportKind::PartialGranule);
        }
        if hi == last {
            return Ok(());
        }
        a = hi + 1;
    }
}

/// The instrumented-access model: records the shadow load the injected
/// check performs, then classifies. One shadow load covers the (≤ 8-byte)
/// scalar access the compiler instruments.
pub fn check_access_recorded(
    env: &mut RtEnv<'_>,
    addr: u64,
    size: u64,
) -> Result<(), AsanReportKind> {
    env.rec.load(shadow_addr(addr), 1);
    classify_access(env.mem, addr, size)
}

/// Poisons `[addr, addr+len)` with `value`, recording the shadow stores.
/// Stores are coalesced to 8-byte writes where the shadow range allows,
/// as compiler-generated poisoning does.
pub fn poison_region(env: &mut RtEnv<'_>, addr: u64, len: u64, value: u8) {
    write_shadow(env, addr, len, value);
}

/// Marks `[addr, addr+len)` addressable, encoding a partial tail granule
/// when `len` is not a multiple of 8.
pub fn unpoison_region(env: &mut RtEnv<'_>, addr: u64, len: u64) {
    debug_assert_eq!(
        addr % SHADOW_GRANULE,
        0,
        "unpoison base must be granule-aligned"
    );
    let full = len / SHADOW_GRANULE * SHADOW_GRANULE;
    write_shadow(env, addr, full, 0);
    let tail = len % SHADOW_GRANULE;
    if tail != 0 {
        let s = shadow_addr(addr + full);
        env.rec.store(s, 1);
        env.mem.write_u8(s, tail as u8);
    }
}

fn write_shadow(env: &mut RtEnv<'_>, addr: u64, len: u64, value: u8) {
    if len == 0 {
        return;
    }
    let s0 = shadow_addr(addr);
    let s1 = shadow_addr(addr + len - 1);
    let nbytes = s1 - s0 + 1;
    // Functional effect.
    env.mem.fill(s0, nbytes, value);
    // Recorded traffic: 8-byte stores over the shadow range.
    let mut s = s0;
    while s <= s1 {
        let w = (s1 - s + 1).min(8);
        env.rec.store(s, w);
        s += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rest_core::{NullBackend, Token, TokenWidth};
    use rest_isa::GuestMemory;

    use crate::traffic::TrafficRecorder;

    struct Fixture {
        mem: GuestMemory,
        rec: TrafficRecorder,
        backend: NullBackend,
        token: Token,
    }

    impl Fixture {
        fn new() -> Fixture {
            let mut rng = StdRng::seed_from_u64(5);
            Fixture {
                mem: GuestMemory::new(),
                rec: TrafficRecorder::new(),
                backend: NullBackend,
                token: Token::generate(TokenWidth::B64, &mut rng),
            }
        }

        fn env(&mut self) -> RtEnv<'_> {
            RtEnv {
                mem: &mut self.mem,
                rec: &mut self.rec,
                backend: &mut self.backend,
                token: &self.token,
                check_backend: false,
                check_shadow: false,
                perfect_hw: false,
                naive_wide_arm: false,
                guest_pc: 0,
                sites: None,
            }
        }
    }

    #[test]
    fn poison_then_classify() {
        let mut f = Fixture::new();
        let mut env = f.env();
        poison_region(&mut env, 0x4000_0000, 64, POISON_HEAP_LEFT);
        assert_eq!(
            classify_access(env.mem, 0x4000_0000, 8),
            Err(AsanReportKind::HeapRedzone)
        );
        assert_eq!(
            classify_access(env.mem, 0x4000_003f, 1),
            Err(AsanReportKind::HeapRedzone)
        );
        assert_eq!(classify_access(env.mem, 0x4000_0040, 8), Ok(()));
        // An access straddling into the redzone is caught.
        assert_eq!(
            classify_access(env.mem, 0x3fff_fffc, 8),
            Err(AsanReportKind::HeapRedzone)
        );
    }

    #[test]
    fn unpoison_restores_addressability_with_partial_tail() {
        let mut f = Fixture::new();
        let mut env = f.env();
        poison_region(&mut env, 0x5000, 64, POISON_FREED);
        unpoison_region(&mut env, 0x5000, 13);
        assert_eq!(classify_access(env.mem, 0x5000, 8), Ok(()));
        // Bytes 8..13 addressable (partial granule value 5).
        assert_eq!(classify_access(env.mem, 0x5008, 5), Ok(()));
        // Byte 13 is beyond the valid prefix.
        assert_eq!(
            classify_access(env.mem, 0x500d, 1),
            Err(AsanReportKind::PartialGranule)
        );
        // Byte 16 is still freed-poisoned.
        assert_eq!(
            classify_access(env.mem, 0x5010, 1),
            Err(AsanReportKind::UseAfterFree)
        );
    }

    #[test]
    fn poison_values_map_to_report_kinds() {
        let mut f = Fixture::new();
        let mut env = f.env();
        poison_region(&mut env, 0x100, 8, POISON_STACK_LEFT);
        poison_region(&mut env, 0x108, 8, POISON_FREED);
        assert_eq!(
            classify_access(env.mem, 0x100, 1),
            Err(AsanReportKind::StackRedzone)
        );
        assert_eq!(
            classify_access(env.mem, 0x108, 1),
            Err(AsanReportKind::UseAfterFree)
        );
    }

    /// The byte-by-byte walk `classify_access` replaced: one shadow read
    /// per accessed byte.
    fn classify_per_byte(mem: &GuestMemory, addr: u64, size: u64) -> Result<(), AsanReportKind> {
        for a in addr..=addr.saturating_add(size.max(1) - 1) {
            let sv = mem.read_u8(shadow_addr(a));
            if sv == 0 {
                continue;
            }
            if sv < SHADOW_GRANULE as u8 {
                if (a % SHADOW_GRANULE) < sv as u64 {
                    continue;
                }
                return Err(AsanReportKind::PartialGranule);
            }
            return Err(kind_of_poison(sv));
        }
        Ok(())
    }

    #[test]
    fn granule_classification_matches_the_per_byte_walk() {
        let values = [
            0u8,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            0x42,
            POISON_HEAP_LEFT,
            POISON_HEAP_RIGHT,
            POISON_FREED,
            POISON_STACK_LEFT,
            POISON_STACK_RIGHT,
        ];
        // Three granules: `first` then `second`, with `third` poisoned
        // differently so that reaching it is visible.
        let base = 0x7000_0000u64;
        let mut cases = 0;
        for &first in &values {
            for &second in &values {
                let mut mem = GuestMemory::new();
                mem.write_u8(shadow_addr(base), first);
                mem.write_u8(shadow_addr(base + 8), second);
                mem.write_u8(shadow_addr(base + 16), POISON_FREED);
                for start in 0..16 {
                    for size in 1..=16 {
                        let addr = base + start;
                        assert_eq!(
                            classify_access(&mem, addr, size),
                            classify_per_byte(&mem, addr, size),
                            "shadow {first:#x}/{second:#x}, offset {start}, size {size}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, values.len() * values.len() * 16 * 16);
        // Size 0 checks one byte, like the per-byte walk.
        let mem = GuestMemory::new();
        assert_eq!(classify_access(&mem, base, 0), Ok(()));
    }

    #[test]
    fn classification_at_the_top_of_the_address_space_does_not_wrap() {
        let top_granule = u64::MAX - 7;
        for sv in [0u8, 3, 7, POISON_HEAP_RIGHT] {
            let mut mem = GuestMemory::new();
            mem.write_u8(shadow_addr(top_granule), sv);
            mem.write_u8(shadow_addr(top_granule - 8), 5);
            for (addr, size) in [
                (u64::MAX, 1),
                (u64::MAX, 8),
                (u64::MAX - 7, 8),
                (u64::MAX - 3, 4),
                (u64::MAX - 3, 64),
                (u64::MAX - 12, 13),
                (u64::MAX - 12, u64::MAX),
            ] {
                assert_eq!(
                    classify_access(&mem, addr, size),
                    classify_per_byte(&mem, addr, size),
                    "shadow {sv:#x}, addr {addr:#x}, size {size}"
                );
            }
        }
    }

    #[test]
    fn shadow_stores_are_coalesced() {
        let mut f = Fixture::new();
        let mut env = f.env();
        // 512 app bytes -> 64 shadow bytes -> 8 stores.
        poison_region(&mut env, 0x4000_0000, 512, POISON_HEAP_RIGHT);
        let _ = env;
        let stores = f.rec.drain();
        assert_eq!(stores.len(), 8);
        assert!(stores.iter().all(|o| o.mem.unwrap().size == 8));
    }

    #[test]
    fn recorded_check_emits_one_shadow_load() {
        let mut f = Fixture::new();
        let mut env = f.env();
        assert_eq!(check_access_recorded(&mut env, 0x6000, 8), Ok(()));
        let _ = env;
        let ops = f.rec.drain();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].mem.unwrap().addr, shadow_addr(0x6000));
    }
}
