//! Memory-error attack scenarios for the REST reproduction.
//!
//! Each [`Attack`] builds a guest program containing a *planted secret*
//! and a memory-safety bug, runs it under a protection scheme, and
//! reports whether the violation was detected and whether the secret
//! leaked into the program's output. The suite covers:
//!
//! * the paper's motivating example (Listing 1 / Figure 1): a
//!   Heartbleed-style out-of-bounds read through an
//!   attacker-controlled `memcpy` length,
//! * linear heap overflow writes and stack overflows (the tripwire
//!   access pattern REST targets),
//! * temporal errors: use-after-free and double free,
//! * the §V-C security discussion, as executable facts: the
//!   padding-gap false negative, brute-force `disarm` probing,
//!   uninitialised-data leaks (prevented by REST's zeroed free pool),
//!   and composability with uninstrumented third-party libraries.
//!
//! # Example
//!
//! ```
//! use rest_attacks::Attack;
//! use rest_runtime::RtConfig;
//! use rest_core::Mode;
//!
//! // Heartbleed leaks under the plain build…
//! let plain = Attack::Heartbleed.run(RtConfig::plain());
//! assert!(plain.leaked_secret && !plain.detected);
//! // …and is stopped by REST.
//! let rest = Attack::Heartbleed.run(RtConfig::rest(Mode::Secure, false));
//! assert!(rest.detected && !rest.leaked_secret);
//! ```

#![forbid(unsafe_code)]

mod programs;
pub mod regress;

use rest_cpu::{Emulator, ExecEngine, SimConfig, StopReason};
use rest_isa::Program;
use rest_runtime::{RtConfig, Scheme, StackScheme};

/// The planted secret every scenario hides near its vulnerable buffer.
pub const SECRET: &[u8; 8] = b"S3CR3T!!";

/// One attack scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attack {
    /// Listing 1: over-long `memcpy` from a heap buffer leaks adjacent
    /// secrets (read overflow — canaries don't help).
    Heartbleed,
    /// Linear heap overflow *write* walking past the end of a buffer.
    HeapOverflowWrite,
    /// Linear stack-buffer overflow write within a frame.
    StackOverflow,
    /// Read through a dangling pointer after `free`.
    UseAfterFree,
    /// `free` called twice on the same allocation.
    DoubleFree,
    /// §V-C false negative: an overflow small enough to stay inside the
    /// token-alignment padding.
    PaddingGapOverread,
    /// §V-C brute-force disarm: an attacker-controlled `disarm` gadget
    /// sweeping memory without knowing what is armed.
    BruteForceDisarm,
    /// Uninitialised-data leak through heap reuse (REST's zeroed free
    /// pool prevents this; plain/ASan reuse leaves old bytes).
    UninitLeak,
    /// Overflowing copy performed by an *uninstrumented* library
    /// routine: ASan's compile-time checks don't exist there, but REST's
    /// tokens are checked by hardware regardless of who issues the
    /// access (§V-C composability).
    UncheckedLibraryOverflow,
    /// §V-C predictability: strided probes that jump *over* redzones at
    /// the allocator's chunk stride. Undetected by every scheme unless
    /// REST's decoy-token sprinkling is enabled.
    JumpOverRedzone,
}

/// What a scheme is expected to do with an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The violation is detected and the program stopped.
    Detected,
    /// The attack proceeds silently (and leaks where applicable).
    Undetected,
    /// Documented false negative: undetected, but harmless here (e.g.
    /// the padding gap reads zeroes).
    FalseNegative,
    /// The attack is neutralised by construction rather than detected
    /// (e.g. REST's zeroed free pool turns an uninitialised-data leak
    /// into a read of zeroes).
    Prevented,
    /// Lock-and-key schemes with small keys (MTE's 4-bit tags): the
    /// attack is detected unless the random metadata happens to collide
    /// (1 in 16 for MTE). Either outcome is within spec, but a miss
    /// must not be *worse* than the unprotected build.
    AliasingProne,
    /// The scenario does not apply to this scheme (e.g. disarm probing
    /// without REST hardware).
    NotApplicable,
}

impl Expectation {
    /// Serialisation name (kebab-case, stable across reports).
    pub fn name(self) -> &'static str {
        match self {
            Expectation::Detected => "detected",
            Expectation::Undetected => "undetected",
            Expectation::FalseNegative => "false-negative",
            Expectation::Prevented => "prevented",
            Expectation::AliasingProne => "aliasing-prone",
            Expectation::NotApplicable => "not-applicable",
        }
    }

    /// Inverse of [`Expectation::name`], for deserialising regression
    /// sidecars (`expect <scheme> <name>` lines).
    pub fn from_name(name: &str) -> Option<Expectation> {
        Some(match name {
            "detected" => Expectation::Detected,
            "undetected" => Expectation::Undetected,
            "false-negative" => Expectation::FalseNegative,
            "prevented" => Expectation::Prevented,
            "aliasing-prone" => Expectation::AliasingProne,
            "not-applicable" => Expectation::NotApplicable,
            _ => return None,
        })
    }

    /// Whether `out` is within this expectation's spec — the single
    /// predicate [`verify`] and the defense-matrix harness both apply.
    pub fn admits(self, out: &AttackOutcome) -> bool {
        match self {
            // A *delayed* detection still counts as detected, but cannot
            // promise the secret stayed in: async MTE reports after the
            // access has gone through.
            Expectation::Detected => out.detected && (out.delayed || !out.leaked_secret),
            Expectation::Undetected => !out.detected,
            Expectation::FalseNegative | Expectation::Prevented => {
                !out.detected && !out.leaked_secret
            }
            // Either the check fired (possibly after the fact) or the
            // aliased miss at least denied the secret.
            Expectation::AliasingProne => out.detected || !out.leaked_secret,
            Expectation::NotApplicable => true,
        }
    }
}

/// Result of running one attack under one configuration.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// How the program stopped.
    pub stop: StopReason,
    /// Whether a violation was detected — immediately (the run stopped
    /// on it) or after the fact (a deferred MTE-async fault latched
    /// during the run and surfaced at program stop).
    pub detected: bool,
    /// The detection was deferred: the program ran to completion and
    /// the fault was only reported at stop (MTE async/asymm TFSR
    /// semantics). Always false when the run stopped on the violation.
    pub delayed: bool,
    /// Whether the planted secret reached the program output.
    pub leaked_secret: bool,
}

impl Attack {
    /// All scenarios.
    pub const ALL: [Attack; 10] = [
        Attack::Heartbleed,
        Attack::HeapOverflowWrite,
        Attack::StackOverflow,
        Attack::UseAfterFree,
        Attack::DoubleFree,
        Attack::PaddingGapOverread,
        Attack::BruteForceDisarm,
        Attack::UninitLeak,
        Attack::UncheckedLibraryOverflow,
        Attack::JumpOverRedzone,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Attack::Heartbleed => "heartbleed-oob-read",
            Attack::HeapOverflowWrite => "heap-overflow-write",
            Attack::StackOverflow => "stack-overflow-write",
            Attack::UseAfterFree => "use-after-free",
            Attack::DoubleFree => "double-free",
            Attack::PaddingGapOverread => "padding-gap-overread",
            Attack::BruteForceDisarm => "brute-force-disarm",
            Attack::UninitLeak => "uninit-data-leak",
            Attack::UncheckedLibraryOverflow => "unchecked-library-overflow",
            Attack::JumpOverRedzone => "jump-over-redzone",
        }
    }

    /// Builds the scenario's guest program for the given stack scheme.
    pub fn build(self, stack: StackScheme) -> Program {
        match self {
            Attack::Heartbleed => programs::heartbleed(),
            Attack::HeapOverflowWrite => programs::heap_overflow_write(),
            Attack::StackOverflow => programs::stack_overflow(stack),
            Attack::UseAfterFree => programs::use_after_free(),
            Attack::DoubleFree => programs::double_free(),
            Attack::PaddingGapOverread => programs::padding_gap_overread(),
            Attack::BruteForceDisarm => programs::brute_force_disarm(),
            Attack::UninitLeak => programs::uninit_leak(),
            Attack::UncheckedLibraryOverflow => programs::heartbleed(),
            Attack::JumpOverRedzone => programs::jump_over_redzone(),
        }
    }

    /// Expected behaviour of `scheme` against this attack, per the
    /// paper's §V analysis.
    pub fn expectation(self, scheme: Scheme) -> Expectation {
        use Attack::*;
        use Expectation::*;
        match (self, scheme) {
            (_, Scheme::Plain) => match self {
                BruteForceDisarm => NotApplicable,
                // The plain allocator has no secret to zero and no
                // checks: every attack proceeds.
                _ => Undetected,
            },
            (PaddingGapOverread, Scheme::Rest) => FalseNegative,
            // ASan's byte-precise shadow catches the padding overread
            // (its granule is 8 B, the redzone starts right after the
            // partially-valid granule).
            (PaddingGapOverread, Scheme::Asan) => Detected,
            (BruteForceDisarm, Scheme::Asan) => NotApplicable,
            (UninitLeak, Scheme::Asan) => Undetected, // ASan does not zero
            (UninitLeak, Scheme::Rest) => Prevented,  // zeroed pool: no leak
            (UncheckedLibraryOverflow, Scheme::Asan) => Undetected,
            // MTE: every heap access is a 4-bit lock-and-key check, so
            // the spatial and temporal heap attacks are caught unless
            // the random tags alias (1/16). The 16-byte granule also
            // covers most of what REST's 64-byte alignment pad gives
            // away, and tagged pointers break the stride arithmetic of
            // redzone-jumping (ptr subtraction mixes tag bits).
            (StackOverflow, Scheme::Mte) => Undetected, // heap-only tags
            (UninitLeak, Scheme::Mte) => Undetected,    // MTE does not zero
            (BruteForceDisarm, Scheme::Mte) => NotApplicable,
            (_, Scheme::Mte) => AliasingProne,
            // PA: the 8-bit PAC over (base, generation) authenticates
            // every dereference against the live-allocation registry —
            // deterministic detection for the heap attacks, including
            // the padding overread (the registry is granule-exact, so
            // reads past the padded area fail authentication).
            (StackOverflow, Scheme::Pa) => Undetected, // heap pointers only
            (UninitLeak, Scheme::Pa) => Undetected,    // fresh signature, old bytes
            (BruteForceDisarm, Scheme::Pa) => NotApplicable,
            (PaddingGapOverread, Scheme::Pa) => Detected,
            (_, Scheme::Pa) => Detected,
            // Both redzone schemes share the predictability weakness:
            // probes that leap the redzones land in valid neighbouring
            // data (countered by REST's sprinkling, tested separately).
            (JumpOverRedzone, _) => Undetected,
            _ => Detected,
        }
    }

    /// The per-scenario runtime adjustments applied before a run: the
    /// library overflow models an *uninstrumented* routine (libc
    /// interception off) and the uninit leak forces heap reuse within
    /// the run (tiny quarantine). [`Attack::run`] and the bench
    /// defense-matrix harness both apply this, so the two measurement
    /// paths stage the same scenario.
    pub fn rt_for(self, rt: RtConfig) -> RtConfig {
        match self {
            // Model an uninstrumented library: interception off.
            Attack::UncheckedLibraryOverflow => RtConfig {
                intercept_libc: false,
                ..rt
            },
            // Force heap reuse within the run (any freed chunk exceeds
            // this budget and is recycled immediately).
            Attack::UninitLeak => rt.with_quarantine(64),
            _ => rt,
        }
    }

    /// Runs the scenario under `rt` (functionally) and reports the
    /// outcome. Stack protection follows the configuration's scheme and
    /// scope.
    pub fn run(self, rt: RtConfig) -> AttackOutcome {
        let program = self.build(rt.stack_scheme());
        run_and_judge(program, self.rt_for(rt)).expect("run_functional stops")
    }
}

/// Whether the planted [`SECRET`] reached `output`.
pub fn leaks_secret(output: &[u8]) -> bool {
    output.windows(SECRET.len()).any(|w| w == SECRET.as_slice())
}

/// Runs `program` functionally under `rt` and judges the run the one
/// way [`Attack::run`] and [`regress::replay`] share: a violation stop
/// or a deferred fault is a detection, the secret in the output a
/// leak. `None` when the run did not stop.
fn run_and_judge(program: Program, rt: RtConfig) -> Option<AttackOutcome> {
    let mut emu = Emulator::new(program, &SimConfig::isca2018(rt));
    emu.run_functional();
    let stop = emu.take_stop()?;
    let delayed = emu.take_deferred().is_some();
    Some(AttackOutcome {
        detected: matches!(stop, StopReason::Violation(_)) || delayed,
        stop,
        delayed,
        leaked_secret: leaks_secret(emu.runtime().output()),
    })
}

impl std::fmt::Display for Attack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Convenience for harnesses: checks one attack under one config against
/// the paper's expectation, returning a human-readable verdict line.
pub fn verify(attack: Attack, rt: RtConfig) -> Result<String, String> {
    let scheme = rt.scheme;
    let expect = attack.expectation(scheme);
    if expect == Expectation::NotApplicable {
        return Ok(format!("{attack}: n/a under {}", scheme.name()));
    }
    let out = attack.run(rt);
    let ok = expect.admits(&out);
    let line = format!(
        "{attack}: scheme={} expected={expect:?} detected={} delayed={} leaked={}",
        scheme.name(),
        out.detected,
        out.delayed,
        out.leaked_secret
    );
    if ok {
        Ok(line)
    } else {
        Err(format!("{line} stop={:?}", out.stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_core::Mode;
    use rest_core::RestExceptionKind;
    use rest_runtime::Violation;

    #[test]
    fn jump_over_redzone_beats_redzones_but_not_sprinkling() {
        // The strided probe leaks under plain, ASan, and vanilla REST…
        for cfg in [
            RtConfig::plain(),
            RtConfig::asan(),
            RtConfig::rest(Mode::Secure, false),
        ] {
            let out = Attack::JumpOverRedzone.run(cfg.clone());
            assert!(!out.detected, "{}: {:?}", cfg.label(), out.stop);
            assert!(
                out.leaked_secret,
                "{}: probe must reach the secret",
                cfg.label()
            );
        }
        // …but decoy sprinkling (§V-C) breaks the stride lattice.
        let out = Attack::JumpOverRedzone.run(RtConfig::rest(Mode::Secure, false).with_sprinkle());
        assert!(
            !out.leaked_secret,
            "sprinkling must deny the secret: {:?}",
            out.stop
        );
        assert!(out.detected, "a probe must land on a decoy: {:?}", out.stop);
    }

    fn rest_full() -> RtConfig {
        RtConfig::rest(Mode::Secure, true)
    }

    #[test]
    fn heartbleed_matrix() {
        let plain = Attack::Heartbleed.run(RtConfig::plain());
        assert!(!plain.detected, "{:?}", plain.stop);
        assert!(plain.leaked_secret, "plain build must leak");

        let asan = Attack::Heartbleed.run(RtConfig::asan());
        assert!(asan.detected && !asan.leaked_secret, "{:?}", asan.stop);

        let rest = Attack::Heartbleed.run(rest_full());
        assert!(rest.detected && !rest.leaked_secret, "{:?}", rest.stop);
    }

    #[test]
    fn heap_overflow_write_matrix() {
        assert!(!Attack::HeapOverflowWrite.run(RtConfig::plain()).detected);
        assert!(Attack::HeapOverflowWrite.run(RtConfig::asan()).detected);
        let rest = Attack::HeapOverflowWrite.run(rest_full());
        assert!(rest.detected);
        match rest.stop {
            StopReason::Violation(Violation::Rest(e)) => {
                assert_eq!(e.kind, RestExceptionKind::TokenStore);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stack_overflow_needs_full_protection() {
        // Heap-only REST misses stack smashing…
        let heap_only = Attack::StackOverflow.run(RtConfig::rest(Mode::Secure, false));
        assert!(!heap_only.detected, "{:?}", heap_only.stop);
        // …full REST catches it.
        let full = Attack::StackOverflow.run(rest_full());
        assert!(full.detected, "{:?}", full.stop);
        // ASan full catches it as a stack redzone.
        let asan = Attack::StackOverflow.run(RtConfig::asan());
        assert!(asan.detected, "{:?}", asan.stop);
    }

    #[test]
    fn temporal_errors_matrix() {
        for attack in [Attack::UseAfterFree, Attack::DoubleFree] {
            assert!(!attack.run(RtConfig::plain()).detected, "{attack}");
            assert!(attack.run(RtConfig::asan()).detected, "{attack}");
            assert!(attack.run(rest_full()).detected, "{attack}");
        }
        // The plain use-after-free actually leaks the secret.
        assert!(Attack::UseAfterFree.run(RtConfig::plain()).leaked_secret);
    }

    #[test]
    fn padding_gap_is_rest_false_negative_but_asan_detects() {
        let rest = Attack::PaddingGapOverread.run(rest_full());
        assert!(!rest.detected, "{:?}", rest.stop);
        assert!(!rest.leaked_secret, "pad must read zeroes, not secrets");
        let asan = Attack::PaddingGapOverread.run(RtConfig::asan());
        assert!(asan.detected, "{:?}", asan.stop);
    }

    #[test]
    fn brute_force_disarm_raises_immediately() {
        let rest = Attack::BruteForceDisarm.run(rest_full());
        assert!(rest.detected);
        match rest.stop {
            StopReason::Violation(Violation::Rest(e)) => {
                assert_eq!(e.kind, RestExceptionKind::DisarmUnarmed);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn uninit_leak_prevented_only_by_rest() {
        let plain = Attack::UninitLeak.run(RtConfig::plain());
        assert!(plain.leaked_secret, "plain reuse leaks: {:?}", plain.stop);
        let asan = Attack::UninitLeak.run(RtConfig::asan());
        assert!(
            asan.leaked_secret,
            "ASan does not zero reused chunks: {:?}",
            asan.stop
        );
        let rest = Attack::UninitLeak.run(RtConfig::rest(Mode::Secure, false));
        assert!(
            !rest.leaked_secret && !rest.detected,
            "REST's zeroed free pool reads back zeroes: {:?}",
            rest.stop
        );
    }

    #[test]
    fn unchecked_library_is_caught_by_rest_not_asan() {
        let asan = Attack::UncheckedLibraryOverflow.run(RtConfig::asan());
        assert!(
            !asan.detected && asan.leaked_secret,
            "uninstrumented library bypasses ASan: {:?}",
            asan.stop
        );
        let rest = Attack::UncheckedLibraryOverflow.run(rest_full());
        assert!(rest.detected && !rest.leaked_secret, "{:?}", rest.stop);
    }

    #[test]
    fn verify_matrix_is_consistent() {
        use rest_core::MteMode;
        use rest_runtime::Scheme;
        for attack in Attack::ALL {
            for (scheme, cfg) in [
                (Scheme::Plain, RtConfig::plain()),
                (Scheme::Asan, RtConfig::asan()),
                (Scheme::Rest, rest_full()),
                (Scheme::Mte, RtConfig::mte(MteMode::Sync)),
                (Scheme::Mte, RtConfig::mte(MteMode::Async)),
                (Scheme::Mte, RtConfig::mte(MteMode::Asymm)),
                (Scheme::Pa, RtConfig::pa()),
            ] {
                let _ = scheme;
                if let Err(e) = verify(attack, cfg.clone()) {
                    panic!("expectation mismatch: {e}");
                }
            }
        }
    }

    #[test]
    fn mte_catches_heap_overflow_with_tag_mismatch() {
        use rest_core::MteMode;
        let out = Attack::HeapOverflowWrite.run(RtConfig::mte(MteMode::Sync));
        assert!(out.detected, "{:?}", out.stop);
        assert!(!out.delayed, "sync mode stops at the access");
        match out.stop {
            StopReason::Violation(Violation::Tag(f)) => {
                assert_ne!(f.ptr_tag, f.mem_tag);
                assert!(f.precise);
            }
            ref other => panic!("expected tag fault, got {other:?}"),
        }
    }

    #[test]
    fn pa_catches_spatial_and_temporal_heap_errors() {
        for attack in [
            Attack::Heartbleed,
            Attack::HeapOverflowWrite,
            Attack::UseAfterFree,
            Attack::DoubleFree,
        ] {
            let out = attack.run(RtConfig::pa());
            assert!(out.detected, "{attack}: {:?}", out.stop);
            assert!(!out.leaked_secret, "{attack} must not leak");
            assert!(
                matches!(out.stop, StopReason::Violation(Violation::Pac(_))),
                "{attack}: {:?}",
                out.stop
            );
        }
    }

    #[test]
    fn pa_granularity_beats_rests_padding_gap() {
        // The overread that slips inside REST's 64-byte alignment pad
        // (§V-C) crosses the PA registry's 16-byte granule boundary and
        // fails authentication.
        let out = Attack::PaddingGapOverread.run(RtConfig::pa());
        assert!(out.detected, "{:?}", out.stop);
    }

    #[test]
    fn mte_sync_and_async_flag_the_same_attacks() {
        // Lockstep differential: the tag *stream* is seeded identically
        // in both modes, so the set of flagged attacks must be equal —
        // only the timing (stop-at-access vs report-at-exit) and the
        // leak window may differ.
        use rest_core::MteMode;
        for attack in Attack::ALL {
            if attack.expectation(Scheme::Mte) == Expectation::NotApplicable {
                continue;
            }
            let sync = attack.run(RtConfig::mte(MteMode::Sync));
            let async_ = attack.run(RtConfig::mte(MteMode::Async));
            assert_eq!(
                sync.detected, async_.detected,
                "{attack}: sync={:?} async={:?}",
                sync.stop, async_.stop
            );
            if sync.detected {
                // Sync stops the program at the faulting access…
                assert!(
                    matches!(sync.stop, StopReason::Violation(Violation::Tag(_))),
                    "{attack}: {:?}",
                    sync.stop
                );
                assert!(!sync.delayed);
                // …async lets it run and reports at stop.
                assert!(async_.delayed, "{attack}: {:?}", async_.stop);
                assert!(
                    !matches!(async_.stop, StopReason::Violation(_)),
                    "{attack}: async must not stop on the access: {:?}",
                    async_.stop
                );
            }
        }
    }

    #[test]
    fn mte_async_widens_the_leak_window() {
        // The paper-level async trade-off as an executable fact: the
        // same Heartbleed run is flagged by both modes, but only sync
        // stops the exfiltration before the secret leaves.
        use rest_core::MteMode;
        let sync = Attack::Heartbleed.run(RtConfig::mte(MteMode::Sync));
        let async_ = Attack::Heartbleed.run(RtConfig::mte(MteMode::Async));
        assert!(sync.detected && !sync.leaked_secret, "{:?}", sync.stop);
        assert!(async_.detected && async_.delayed, "{:?}", async_.stop);
        assert!(
            async_.leaked_secret,
            "async detection is post-hoc: the copy already ran"
        );
    }
}
