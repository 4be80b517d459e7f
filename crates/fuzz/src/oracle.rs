//! Tri-oracle differential judge for generated cases.
//!
//! Each case is run through three independent oracles:
//!
//! 1. **restlint** — `rest_verify::verify_program` static must-trap
//!    verdicts (plus Error-severity discipline findings);
//! 2. **functional emulation** — all three [`ExecTier`]s (reference
//!    decode, pre-decoded tables, superblock traces), compared in full
//!    on stop reason, program output, and retired-instruction count;
//! 3. **the timing path** — `System::run`, compared against the
//!    functional result.
//!
//! The observed behaviour is then judged against the generator's
//! [`GroundTruth`], and every case lands in exactly one [`Class`].
//! A class is *explained* when the oracles agree with each other and
//! with ground truth (including REST's by-design fail-open misses);
//! everything else is an *unexplained* disagreement the campaign gates
//! on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::gen::{lower, BugKind, Case, GroundTruth};
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason, System};
use rest_isa::Program;
use rest_runtime::RtConfig;
use rest_verify::{verify_program, Severity};

/// Final judgement for one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Clean ground truth; all oracles report a clean run.
    AgreeClean,
    /// Injected must-detect bug; runtime traps and restlint proves it.
    AgreeDetected,
    /// Padding-gap read: dynamically silent (reads zeroed padding),
    /// statically a warning — REST's documented fail-open gap.
    KnownMissPaddingGap,
    /// Uninitialized in-bounds read: REST zeroes fresh chunks, so the
    /// read silently returns 0 — fail-open by design.
    KnownMissUninitRead,
    /// Guest arm leaked at exit: runtime is clean, restlint flags the
    /// imbalance — blacklisted memory leaked, not a trap.
    KnownMissArmLeak,
    /// The three execution tiers disagreed among themselves.
    TierDivergence,
    /// The timing path disagreed with the functional result.
    TimingDivergence,
    /// restlint claimed a guaranteed trap but the run completed clean.
    StaticUnsound,
    /// restlint reported must-trap or Error findings on a case whose
    /// runtime behaviour (and ground truth) is clean.
    StaticFalsePositive,
    /// Runtime detected an injected bug restlint failed to prove.
    StaticMiss,
    /// An injected must-detect bug ran to completion undetected.
    MissedDetection,
    /// A clean program stopped with a violation.
    FalseDetection,
    /// A known-miss bug was unexpectedly detected at runtime.
    UnexpectedDetection,
    /// An oracle panicked; the harness itself failed on this case.
    HarnessError,
}

impl Class {
    /// Stable kebab-case name used in signatures and `fuzz.json`.
    pub fn name(self) -> &'static str {
        match self {
            Class::AgreeClean => "agree-clean",
            Class::AgreeDetected => "agree-detected",
            Class::KnownMissPaddingGap => "known-miss-padding-gap",
            Class::KnownMissUninitRead => "known-miss-uninit-read",
            Class::KnownMissArmLeak => "known-miss-arm-leak",
            Class::TierDivergence => "tier-divergence",
            Class::TimingDivergence => "timing-divergence",
            Class::StaticUnsound => "static-unsound",
            Class::StaticFalsePositive => "static-false-positive",
            Class::StaticMiss => "static-miss",
            Class::MissedDetection => "missed-detection",
            Class::FalseDetection => "false-detection",
            Class::UnexpectedDetection => "unexpected-detection",
            Class::HarnessError => "harness-error",
        }
    }

    /// Whether the case is fully explained (oracles agree with ground
    /// truth); unexplained classes gate the campaign.
    pub fn is_explained(self) -> bool {
        matches!(
            self,
            Class::AgreeClean
                | Class::AgreeDetected
                | Class::KnownMissPaddingGap
                | Class::KnownMissUninitRead
                | Class::KnownMissArmLeak
        )
    }

    /// All classes, in report order.
    pub const ALL: [Class; 14] = [
        Class::AgreeClean,
        Class::AgreeDetected,
        Class::KnownMissPaddingGap,
        Class::KnownMissUninitRead,
        Class::KnownMissArmLeak,
        Class::TierDivergence,
        Class::TimingDivergence,
        Class::StaticUnsound,
        Class::StaticFalsePositive,
        Class::StaticMiss,
        Class::MissedDetection,
        Class::FalseDetection,
        Class::UnexpectedDetection,
        Class::HarnessError,
    ];
}

/// Everything the oracles observed about one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRecord {
    /// The judgement.
    pub class: Class,
    /// Stop reason of the reference functional run (`exit-0`,
    /// `violation`, …).
    pub stop: String,
    /// Violation / divergence detail, empty for clean runs.
    pub detail: String,
    /// Whether the runtime oracle detected a violation.
    pub detected: bool,
    /// Whether restlint proved a guaranteed trap.
    pub musttrap: bool,
    /// restlint findings at Error severity or above.
    pub static_errors: u64,
    /// All restlint findings (warnings included).
    pub static_findings: u64,
    /// Program output bytes of the reference run.
    pub output: Vec<u8>,
    /// Macro instructions retired by the reference run.
    pub insts: u64,
    /// Timing-path cycles (0 if the run never reached the timing oracle).
    pub cycles: u64,
}

/// One functional run's comparable surface.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FnRun {
    stop: String,
    detail: String,
    detected: bool,
    output: Vec<u8>,
    insts: u64,
}

fn functional_run(program: Program, rt: &RtConfig, tier: ExecTier) -> FnRun {
    let mut cfg = SimConfig::isca2018(rt.clone());
    cfg.tier = tier;
    let mut emu = Emulator::new(program, &cfg);
    emu.run_functional();
    let stop = emu.take_stop().expect("run_functional stops");
    let deferred = emu.take_deferred().is_some();
    let detail = match &stop {
        StopReason::Violation(v) => v.to_string(),
        StopReason::Fault(f) => f.clone(),
        _ => String::new(),
    };
    FnRun {
        stop: stop.name(),
        detail,
        detected: matches!(stop, StopReason::Violation(_)) || deferred,
        output: emu.runtime().output().to_vec(),
        insts: emu.insts(),
    }
}

/// Runs all three oracles on `case` and classifies the outcome.
///
/// Never panics: oracle panics are caught and classified as
/// [`Class::HarnessError`].
pub fn run_case(case: &Case, rt: &RtConfig) -> CaseRecord {
    match catch_unwind(AssertUnwindSafe(|| run_case_inner(case, rt))) {
        Ok(record) => record,
        Err(panic) => {
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic".to_string());
            CaseRecord {
                class: Class::HarnessError,
                stop: "panic".to_string(),
                detail,
                detected: false,
                musttrap: false,
                static_errors: 0,
                static_findings: 0,
                output: Vec::new(),
                insts: 0,
                cycles: 0,
            }
        }
    }
}

fn run_case_inner(case: &Case, rt: &RtConfig) -> CaseRecord {
    // The case is lowered once; every oracle runs the same program.
    let program = lower(case);

    // Oracle 1: restlint.
    let lint = verify_program(&program);
    let musttrap = lint.has_must_trap();
    let static_errors = lint.at_least(Severity::Error).count() as u64;
    let static_findings = lint.findings.len() as u64;

    // Oracle 2: functional emulation at every tier.
    let tiers = [ExecTier::Reference, ExecTier::Fast, ExecTier::Trace];
    let runs: Vec<FnRun> = tiers
        .iter()
        .map(|&t| functional_run(program.clone(), rt, t))
        .collect();
    let reference = runs[0].clone();
    let tier_divergence = runs.iter().enumerate().skip(1).find_map(|(i, run)| {
        (*run != reference).then(|| {
            format!(
                "{:?} vs Reference: stop {} vs {}, insts {} vs {}, output {} vs {} bytes",
                tiers[i], run.stop, reference.stop, run.insts, reference.insts,
                run.output.len(), reference.output.len(),
            )
        })
    });

    // Oracle 3: the timing path.
    let mut cfg = SimConfig::isca2018(rt.clone());
    cfg.tier = ExecTier::Fast;
    let timing = System::new(program, cfg).run();
    let timing_stop = timing.stop.name();
    let timing_divergence = if timing_stop != reference.stop
        || timing.output != reference.output
        || timing.core.insts != reference.insts
    {
        Some(format!(
            "timing vs functional: stop {} vs {}, insts {} vs {}, output {} vs {} bytes",
            timing_stop, reference.stop, timing.core.insts, reference.insts,
            timing.output.len(), reference.output.len(),
        ))
    } else {
        None
    };

    let detected = reference.detected;
    let mut detail = reference.detail.clone();
    let class = if let Some(d) = tier_divergence {
        detail = d;
        Class::TierDivergence
    } else if let Some(d) = timing_divergence {
        detail = d;
        Class::TimingDivergence
    } else {
        classify(case.truth, detected, musttrap, static_errors)
    };

    CaseRecord {
        class,
        stop: reference.stop,
        detail,
        detected,
        musttrap,
        static_errors,
        static_findings,
        output: reference.output,
        insts: reference.insts,
        cycles: timing.core.cycles,
    }
}

/// Ground-truth-vs-oracle judgement once the execution oracles agree.
fn classify(truth: GroundTruth, detected: bool, musttrap: bool, static_errors: u64) -> Class {
    match truth {
        GroundTruth::Clean => {
            if detected {
                Class::FalseDetection
            } else if musttrap {
                Class::StaticUnsound
            } else if static_errors > 0 {
                Class::StaticFalsePositive
            } else {
                Class::AgreeClean
            }
        }
        GroundTruth::Detect(_) => {
            if !detected {
                Class::MissedDetection
            } else if !musttrap {
                Class::StaticMiss
            } else {
                Class::AgreeDetected
            }
        }
        GroundTruth::Miss(bug) => {
            if detected {
                Class::UnexpectedDetection
            } else if musttrap {
                Class::StaticUnsound
            } else if static_errors > 0 && bug != BugKind::ArmImbalance {
                // An arm leak is *supposed* to be statically flagged;
                // Error findings on other known-miss shapes are lint
                // false positives.
                Class::StaticFalsePositive
            } else {
                match bug {
                    BugKind::PaddingGap => Class::KnownMissPaddingGap,
                    BugKind::UninitRead => Class::KnownMissUninitRead,
                    _ => Class::KnownMissArmLeak,
                }
            }
        }
    }
}

/// The protection configuration campaigns run under: REST secure mode
/// with stack protection — the paper's full-protection design point.
pub fn campaign_rt() -> RtConfig {
    RtConfig::from_label("rest-secure-full").expect("rest-secure-full label")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{CaseStream, TraceOp};

    fn case(ops: Vec<TraceOp>, truth: GroundTruth) -> Case {
        Case { index: 0, ops, truth }
    }

    #[test]
    fn handcrafted_cases_hit_expected_classes() {
        let rt = campaign_rt();
        let m = |size| TraceOp::Malloc { slot: 3, size };

        let clean = case(
            vec![
                m(100),
                TraceOp::Store { slot: 3, off: 0, width: 8, val: 7 },
                TraceOp::Load { slot: 3, off: 0, width: 8, emit: true },
            ],
            GroundTruth::Clean,
        );
        assert_eq!(run_case(&clean, &rt).class, Class::AgreeClean);

        let oob = case(
            vec![m(100), TraceOp::Store { slot: 3, off: 128, width: 1, val: 1 }],
            GroundTruth::Detect(BugKind::OobWrite),
        );
        let rec = run_case(&oob, &rt);
        assert_eq!(rec.class, Class::AgreeDetected, "oob: {rec:?}");
        assert_eq!(rec.stop, "violation");

        let left_oob = case(
            vec![m(64), TraceOp::Load { slot: 3, off: -8, width: 8, emit: false }],
            GroundTruth::Detect(BugKind::OobRead),
        );
        assert_eq!(run_case(&left_oob, &rt).class, Class::AgreeDetected);

        let uaf = case(
            vec![m(64), TraceOp::Free { slot: 3 }, TraceOp::Load { slot: 3, off: 0, width: 8, emit: false }],
            GroundTruth::Detect(BugKind::UseAfterFree),
        );
        assert_eq!(run_case(&uaf, &rt).class, Class::AgreeDetected);

        let dfree = case(
            vec![m(64), TraceOp::Free { slot: 3 }, TraceOp::Free { slot: 3 }],
            GroundTruth::Detect(BugKind::DoubleFree),
        );
        assert_eq!(run_case(&dfree, &rt).class, Class::AgreeDetected);

        let gap = case(
            vec![m(100), TraceOp::Load { slot: 3, off: 110, width: 1, emit: true }],
            GroundTruth::Miss(BugKind::PaddingGap),
        );
        let rec = run_case(&gap, &rt);
        assert_eq!(rec.class, Class::KnownMissPaddingGap, "gap: {rec:?}");
        assert_eq!(rec.output, vec![0], "padding reads zero");

        let uninit = case(
            vec![m(100), TraceOp::Load { slot: 3, off: 16, width: 8, emit: true }],
            GroundTruth::Miss(BugKind::UninitRead),
        );
        assert_eq!(run_case(&uninit, &rt).class, Class::KnownMissUninitRead);

        let leak = case(
            vec![m(100), TraceOp::Arm { slot: 3 }],
            GroundTruth::Miss(BugKind::ArmImbalance),
        );
        let rec = run_case(&leak, &rt);
        assert_eq!(rec.class, Class::KnownMissArmLeak, "leak: {rec:?}");
        assert!(rec.static_findings > 0, "arm leak is statically flagged");
    }

    #[test]
    fn mislabeled_truth_is_flagged_not_explained() {
        let rt = campaign_rt();
        // A clean program labelled as a detectable bug -> missed detection.
        let fake = case(
            vec![TraceOp::Malloc { slot: 3, size: 64 }],
            GroundTruth::Detect(BugKind::OobRead),
        );
        assert_eq!(run_case(&fake, &rt).class, Class::MissedDetection);
        // A trapping program labelled clean -> false detection.
        let fake = case(
            vec![
                TraceOp::Malloc { slot: 3, size: 64 },
                TraceOp::Load { slot: 3, off: 64, width: 8, emit: false },
            ],
            GroundTruth::Clean,
        );
        assert_eq!(run_case(&fake, &rt).class, Class::FalseDetection);
    }

    #[test]
    fn generated_stream_is_fully_explained() {
        // The tri-oracle agreement property on a real slice of the
        // default stream; the campaign gate enforces this at 10k scale.
        let rt = campaign_rt();
        let mut stream = CaseStream::new(0xF0CC_5EED);
        for _ in 0..60 {
            let case = stream.next_case();
            let rec = run_case(&case, &rt);
            assert!(
                rec.class.is_explained(),
                "case {} truth {:?} class {:?}: {}",
                case.index,
                case.truth,
                rec.class,
                rec.detail
            );
        }
    }

    #[test]
    fn records_are_deterministic() {
        let rt = campaign_rt();
        let mut a = CaseStream::new(9);
        let mut b = CaseStream::new(9);
        for _ in 0..10 {
            assert_eq!(run_case(&a.next_case(), &rt), run_case(&b.next_case(), &rt));
        }
    }
}
