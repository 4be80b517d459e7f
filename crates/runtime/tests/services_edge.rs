//! Edge-case tests for the runtime service layer across all three
//! schemes: allocation-family corner cases, interception boundaries,
//! and the sprinkling extension.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rest_core::{ArmedSet, Mode, ProtectionBackend, Token};
use rest_isa::{EcallNum, GuestMemory};
use rest_runtime::{EcallOutcome, Heap, RtConfig, RtEnv, Runtime, TrafficRecorder, Violation};

struct Fx {
    mem: GuestMemory,
    rec: TrafficRecorder,
    backend: Box<dyn ProtectionBackend>,
    token: Token,
    cfg: RtConfig,
}

impl Fx {
    fn new(cfg: RtConfig) -> Fx {
        let mut rng = StdRng::seed_from_u64(1234);
        Fx {
            mem: GuestMemory::new(),
            rec: TrafficRecorder::new(),
            backend: cfg.build_backend(1234),
            token: Token::generate(cfg.token_width, &mut rng),
            cfg,
        }
    }

    fn env(&mut self) -> RtEnv<'_> {
        RtEnv {
            mem: &mut self.mem,
            rec: &mut self.rec,
            backend: self.backend.as_mut(),
            token: &self.token,
            check_backend: self.cfg.checks_in_backend(),
            check_shadow: false,
            perfect_hw: self.cfg.perfect_hw,
            naive_wide_arm: self.cfg.naive_wide_arm,
            guest_pc: 0,
            sites: None,
        }
    }

    fn armed(&self) -> &ArmedSet {
        self.backend
            .armed_set()
            .expect("fixture scheme carries an armed set")
    }
}

fn call(rt: &mut Runtime, fx: &mut Fx, num: EcallNum, args: [u64; 6]) -> EcallOutcome {
    let mut env = fx.env();
    rt.ecall(num, args, &mut env)
}

fn done(out: EcallOutcome) -> u64 {
    match out {
        EcallOutcome::Done(v) => v,
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn zero_size_malloc_is_valid_and_freeable() {
    for cfg in [
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::rest(Mode::Secure, false),
    ] {
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg.clone());
        let p = done(call(&mut rt, &mut fx, EcallNum::Malloc, [0, 0, 0, 0, 0, 0]));
        assert_ne!(
            p,
            0,
            "{}: zero-size malloc must still return a chunk",
            cfg.label()
        );
        assert_eq!(
            call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]),
            EcallOutcome::Done(0)
        );
    }
}

#[test]
fn zero_length_memcpy_and_memset_are_noops() {
    let cfg = RtConfig::asan();
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    assert_eq!(
        call(
            &mut rt,
            &mut fx,
            EcallNum::Memcpy,
            [0x9000, 0x8000, 0, 0, 0, 0]
        ),
        EcallOutcome::Done(0x9000)
    );
    assert_eq!(
        call(
            &mut rt,
            &mut fx,
            EcallNum::Memset,
            [0x9000, 0xff, 0, 0, 0, 0]
        ),
        EcallOutcome::Done(0x9000)
    );
    assert_eq!(rt.intercept_checks(), 0, "zero-length calls skip checking");
}

#[test]
fn realloc_of_null_behaves_like_malloc() {
    let cfg = RtConfig::rest(Mode::Secure, false);
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let p = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Realloc,
        [0, 128, 0, 0, 0, 0],
    ));
    assert_ne!(p, 0);
    assert_eq!(rt.allocator().stats().allocs, 1);
}

#[test]
fn realloc_shrink_preserves_prefix() {
    let cfg = RtConfig::asan();
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let p = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Malloc,
        [64, 0, 0, 0, 0, 0],
    ));
    fx.mem.write_u64(p, 0xfeed);
    fx.mem.write_u64(p + 8, 0xf00d);
    let q = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Realloc,
        [p, 16, 0, 0, 0, 0],
    ));
    assert_eq!(fx.mem.read_u64(q), 0xfeed);
    assert_eq!(fx.mem.read_u64(q + 8), 0xf00d);
}

#[test]
fn memset_intercept_rejects_range_into_redzone() {
    let cfg = RtConfig::asan();
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let p = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Malloc,
        [32, 0, 0, 0, 0, 0],
    ));
    let out = call(&mut rt, &mut fx, EcallNum::Memset, [p, 0, 64, 0, 0, 0]);
    assert!(
        matches!(out, EcallOutcome::Violation(Violation::Asan(_))),
        "{out:?}"
    );
    // In-bounds memset is fine.
    let out = call(&mut rt, &mut fx, EcallNum::Memset, [p, 0, 32, 0, 0, 0]);
    assert_eq!(out, EcallOutcome::Done(p));
}

#[test]
fn rest_memset_over_quarantined_chunk_trips_tokens() {
    let cfg = RtConfig::rest(Mode::Secure, false);
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let p = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Malloc,
        [64, 0, 0, 0, 0, 0],
    ));
    call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]);
    let out = call(&mut rt, &mut fx, EcallNum::Memset, [p, 0x41, 16, 0, 0, 0]);
    assert!(
        matches!(out, EcallOutcome::Violation(Violation::Rest(_))),
        "{out:?}"
    );
}

#[test]
fn sprinkled_allocator_spaces_chunks_with_armed_decoys() {
    let cfg = RtConfig::rest(Mode::Secure, false).with_sprinkle();
    let mut alloc = Heap::new(&cfg);
    let mut fx = Fx::new(cfg);
    let mut ptrs = Vec::new();
    {
        let mut env = fx.env();
        for _ in 0..16 {
            ptrs.push(alloc.malloc(&mut env, 64).unwrap());
        }
    }
    // Some inter-chunk gaps must exceed the un-sprinkled stride…
    let mut strides: Vec<u64> = ptrs.windows(2).map(|w| w[1] - w[0]).collect();
    strides.sort_unstable();
    assert!(
        strides.last() > strides.first(),
        "sprinkling must perturb the stride lattice: {strides:?}"
    );
    // …and decoys beyond the allocator's own redzones must be armed.
    let redzone_slots = 16 * 2; // two redzones per chunk at this size
    assert!(
        fx.armed().armed_count() > redzone_slots,
        "decoys must add armed slots: {} armed",
        fx.armed().armed_count()
    );
}

#[test]
fn perfect_hw_runtime_performs_no_arming() {
    let cfg = RtConfig::rest_perfect(false);
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let p = done(call(
        &mut rt,
        &mut fx,
        EcallNum::Malloc,
        [64, 0, 0, 0, 0, 0],
    ));
    call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]);
    assert_eq!(
        fx.armed().armed_count(),
        0,
        "PerfectHW must not arm anything"
    );
}

#[test]
fn allocator_stats_track_a_mixed_session() {
    let cfg = RtConfig::rest(Mode::Secure, false).with_quarantine(512);
    let mut fx = Fx::new(cfg.clone());
    let mut rt = Runtime::new(cfg);
    let mut live = Vec::new();
    for i in 0..10u64 {
        let p = done(call(
            &mut rt,
            &mut fx,
            EcallNum::Malloc,
            [32 + i * 16, 0, 0, 0, 0, 0],
        ));
        live.push(p);
    }
    for p in live.drain(..) {
        call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]);
    }
    let s = rt.allocator().stats();
    assert_eq!(s.allocs, 10);
    assert_eq!(s.frees, 10);
    assert_eq!(s.live_bytes, 0);
    assert!(s.peak_live_bytes > 0);
    assert!(s.quarantine_evictions > 0, "tiny quarantine must evict");
}

#[test]
fn fast_pool_preserves_protection_with_fewer_token_ops() {
    // §VIII future-work allocator: same guarantees, less arm/disarm work.
    let run = |fast: bool| {
        let mut cfg = RtConfig::rest(Mode::Secure, false).with_quarantine(256);
        if fast {
            cfg = cfg.with_fast_pool();
        }
        let mut fx = Fx::new(cfg.clone());
        let mut rt = Runtime::new(cfg);
        // Churn: allocate/free the same class so recycling happens.
        let mut ops = 0u64;
        for _ in 0..8 {
            let p = done(call(
                &mut rt,
                &mut fx,
                EcallNum::Malloc,
                [64, 0, 0, 0, 0, 0],
            ));
            // Freshly handed-out memory must be zero (no uninit leaks)...
            assert_eq!(fx.mem.read_u64(p), 0, "fast={fast}: reuse must be zeroed");
            // ...in-bounds use must work...
            fx.mem.write_u64(p, 0xABCD);
            // ...and the redzones must be armed.
            assert!(fx.armed().is_armed(p - 64), "fast={fast}: left rz");
            assert!(fx.armed().is_armed(p + 64), "fast={fast}: right rz");
            call(&mut rt, &mut fx, EcallNum::Free, [p, 0, 0, 0, 0, 0]);
            // Freed chunk is blacklisted (UAF window).
            assert!(
                fx.armed().overlaps(p, 8),
                "fast={fast}: freed must be armed"
            );
            ops += fx.armed().total_arms() + fx.armed().total_disarms();
        }
        let arms = fx.armed().total_arms();
        let disarms = fx.armed().total_disarms();
        let _ = ops;
        arms + disarms
    };
    let normal_ops = run(false);
    let fast_ops = run(true);
    assert!(
        fast_ops < normal_ops,
        "fast pool must do fewer token ops: {fast_ops} vs {normal_ops}"
    );
}
