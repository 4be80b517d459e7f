//! `fuzz-corpus`: a fixed slice of the fuzz case stream through the
//! tri-oracle (`rest_fuzz::run_case`). Thousands of tiny,
//! allocation-dense programs: setup, restlint, runtime ecalls and
//! backend checks dominate, while the timing loop does little.

use std::hint::black_box;
use std::time::Instant;

use rest_bench::cli::BenchCli;
use rest_cpu::{Emulator, ExecEngine, ExecTier, SimConfig, StopReason, System};
use rest_fuzz::{
    campaign_rt, lower, run_case, BugKind, Case, CaseRecord, CaseStream, Class, GroundTruth,
};
use rest_runtime::RtConfig;
use rest_verify::{verify_program, Severity};

use crate::layers::{construct_timing, Clock, Layers};
use crate::{
    end_to_end, fastest, lines_of, median, median_metrics, metric, numbers, parse, pass_count,
    peak_rss_mb, print_numbers, spawn_pass, time_setups, Args, Digest, Metric, Outcome,
};

/// Cases per pass: about half a second of tri-oracle work, so a run
/// fits many passes.
const CASES: usize = 2000;

const TIERS: [ExecTier; 3] = [ExecTier::Reference, ExecTier::Fast, ExecTier::Trace];

fn cases(seed: u64) -> Vec<Case> {
    let mut stream = CaseStream::new(BenchCli::DEFAULT_FUZZ_SEED ^ seed);
    (0..CASES).map(|_| stream.next_case()).collect()
}

/// Nominal seconds of one untraced and one traced pass process, for
/// [`pass_count`].
const NOMINAL_PASS_S: f64 = 0.6;
const NOMINAL_TRACED_PASS_S: f64 = 0.75;

/// The tri-oracle's setup for a case: five lowerings, an emulator per
/// functional tier and the timing machine.
fn setup(case: &Case, rt: &RtConfig) {
    // `run_case` lowers the case once for restlint, once per tier and
    // once for the timing run.
    black_box(lower(case));
    for tier in TIERS {
        let cfg = SimConfig {
            tier,
            ..SimConfig::isca2018(rt.clone())
        };
        black_box(Emulator::new(lower(case), &cfg));
    }
    black_box(System::new(lower(case), SimConfig::isca2018(rt.clone())));
}

/// A class the benchmark's output check rejects: anything the campaign
/// would gate on (unexplained disagreements, tier or timing divergence,
/// harness errors).
fn rejected(class: Class) -> bool {
    !class.is_explained()
}

fn digest_record(d: &mut Digest, r: &CaseRecord) {
    d.str(r.class.name());
    d.str(&r.stop);
    d.str(&r.detail);
    for v in [
        u64::from(r.detected),
        u64::from(r.musttrap),
        r.static_errors,
        r.static_findings,
        r.insts,
        r.cycles,
    ] {
        d.u64(v);
    }
    d.bytes(&r.output);
}

struct Pass {
    wall_s: f64,
    case_s: Vec<f64>,
    insts: u64,
    failed: u64,
    digest: Digest,
    classes: Vec<Class>,
}

fn pass(cases: &[Case], rt: &RtConfig) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        case_s: Vec::with_capacity(cases.len()),
        insts: 0,
        failed: 0,
        digest: Digest::default(),
        classes: Vec::with_capacity(cases.len()),
    };
    let wall = Instant::now();
    for case in cases {
        let t = Instant::now();
        let rec = run_case(case, rt);
        p.case_s.push(t.elapsed().as_secs_f64());
        // Three functional tiers and the timing path each retire the
        // reference run's instructions when they agree.
        p.insts += 4 * rec.insts;
        p.failed += u64::from(rejected(rec.class));
        digest_record(&mut p.digest, &rec);
        p.classes.push(rec.class);
    }
    p.wall_s = wall.elapsed().as_secs_f64();
    p
}

fn class_counts(classes: &[Class]) -> String {
    Class::ALL
        .iter()
        .filter_map(|c| {
            let n = classes.iter().filter(|x| *x == c).count();
            (n > 0).then(|| format!("{} {n}", c.name()))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// One pass in a child process (`--pass`), printed as lines for the
/// parent to parse. Untraced: every case through `run_case`, then one
/// setup of every case. Traced: one [`traced_pass`].
pub fn child_pass(args: &Args) {
    let rt = campaign_rt();
    let cases = cases(args.seed);
    if args.trace {
        let t = traced_pass(&cases, &rt);
        for f in &t.failures {
            println!("fail {f}");
        }
        for line in &t.info {
            println!("info {line}");
        }
        for m in &t.metrics {
            println!("metric {} {}", m.name, m.value);
        }
        return;
    }
    let p = pass(&cases, &rt);
    print_numbers("setup", &time_setups(&cases, 1, |case| setup(case, &rt)));
    print_numbers("case", &p.case_s);
    println!(
        "pass {} {} {} {} {}",
        p.wall_s,
        p.insts,
        p.failed,
        p.digest.hex(),
        peak_rss_mb()
    );
    println!("classes {}", class_counts(&p.classes));
}

/// What an untraced [`child_pass`] printed.
struct ChildPass {
    setup_s: Vec<f64>,
    case_s: Vec<f64>,
    wall_s: f64,
    insts: u64,
    failed: u64,
    digest: String,
    peak_rss_mb: f64,
    classes: String,
}

fn parse_pass(text: &str) -> Result<ChildPass, String> {
    let line = |key: &'static str| {
        lines_of(text, key)
            .next()
            .ok_or_else(|| format!("pass process printed no {key} line"))
    };
    let summary: Vec<&str> = line("pass")?.split_whitespace().collect();
    let [wall, insts, failed, digest, rss] = summary[..] else {
        return Err("malformed pass line".into());
    };
    Ok(ChildPass {
        setup_s: numbers(text, "setup")?,
        case_s: numbers(text, "case")?,
        wall_s: parse(wall)?,
        insts: parse(insts)?,
        failed: parse(failed)?,
        digest: digest.to_string(),
        peak_rss_mb: parse(rss)?,
        classes: line("classes")?.to_string(),
    })
}

/// Each pass runs in a fresh process: the tri-oracle's allocation
/// churn makes a long-lived process slow down pass after pass (heap
/// trimming and refaulting), which would tie the figures to a pass's
/// place in the run.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut o = Outcome::default();
    let passes: Vec<ChildPass> = (0..pass_count(args.seconds, NOMINAL_PASS_S))
        .filter_map(|_| {
            o.attempted += CASES as u64;
            spawn_pass("fuzz-corpus", args.seed, false)
                .and_then(|text| parse_pass(&text))
                .map_err(|e| {
                    o.failed += CASES as u64;
                    o.info.push(format!("FAILED pass: {e}"));
                })
                .ok()
        })
        .collect();
    let Some(first) = passes.first() else {
        return o;
    };
    for p in &passes {
        o.failed += p.failed;
        if p.case_s.len() != CASES || p.setup_s.len() != CASES || p.digest != first.digest {
            o.failed += 1;
            o.info
                .push("FAILED oracle records differ between passes".into());
        }
    }
    let setup_s: f64 = fastest(passes.iter().map(|p| &p.setup_s[..])).iter().sum();
    let case_s = fastest(passes.iter().map(|p| &p.case_s[..]));
    let glue_s = passes
        .iter()
        .map(|p| p.wall_s - p.case_s.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    o.info.push(format!(
        "fuzz-corpus: {CASES} cases x {} passes (one single-threaded process each), {} insts per pass; \
         classes: {}; \
         stats digest {}",
        passes.len(),
        first.insts,
        first.classes,
        first.digest
    ));
    // A case retires a few dozen instructions per run, so setup is most
    // of its time and the case time less `setup_s` would be mostly
    // noise: guest_mips here is per second of the whole tri-oracle.
    // The traced run splits that time by layer.
    let simulate_s = case_s.iter().sum::<f64>();
    let rss = median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>());
    o.metrics = end_to_end(&case_s, glue_s, setup_s, simulate_s, first.insts, rss);
    o
}

/// `(stop, detail)` labels exactly as the tri-oracle compares them.
fn stop_label(stop: &StopReason) -> (String, String) {
    match stop {
        StopReason::Exit(0) => ("exit-0".to_string(), String::new()),
        StopReason::Exit(code) => (format!("exit-{code}"), String::new()),
        StopReason::Halted => ("halted".to_string(), String::new()),
        StopReason::Violation(v) => ("violation".to_string(), v.to_string()),
        StopReason::UopLimit => ("uop-limit".to_string(), String::new()),
        StopReason::CycleLimit => ("cycle-limit".to_string(), String::new()),
        StopReason::Fault(f) => ("guest-fault".to_string(), f.clone()),
    }
}

/// One functional oracle run's comparable surface.
#[derive(PartialEq, Eq)]
struct FnRun {
    stop: (String, String),
    detected: bool,
    output: Vec<u8>,
    insts: u64,
}

/// Ground-truth judgement once the execution oracles agree.
fn classify(truth: GroundTruth, detected: bool, musttrap: bool, static_errors: usize) -> Class {
    match truth {
        GroundTruth::Clean if detected => Class::FalseDetection,
        GroundTruth::Clean if musttrap => Class::StaticUnsound,
        GroundTruth::Clean if static_errors > 0 => Class::StaticFalsePositive,
        GroundTruth::Clean => Class::AgreeClean,
        GroundTruth::Detect(_) if !detected => Class::MissedDetection,
        GroundTruth::Detect(_) if !musttrap => Class::StaticMiss,
        GroundTruth::Detect(_) => Class::AgreeDetected,
        GroundTruth::Miss(_) if detected => Class::UnexpectedDetection,
        GroundTruth::Miss(_) if musttrap => Class::StaticUnsound,
        GroundTruth::Miss(bug) if static_errors > 0 && bug != BugKind::ArmImbalance => {
            Class::StaticFalsePositive
        }
        GroundTruth::Miss(BugKind::PaddingGap) => Class::KnownMissPaddingGap,
        GroundTruth::Miss(BugKind::UninitRead) => Class::KnownMissUninitRead,
        GroundTruth::Miss(_) => Class::KnownMissArmLeak,
    }
}

/// The tri-oracle rebuilt from public calls, each call charged to its
/// layer: restlint, the three functional tiers, the timing path.
fn redrive(case: &Case, rt: &RtConfig, l: &mut Layers, clock: &Clock) -> Class {
    let t = Instant::now();
    let program = lower(case);
    l.build_s += clock.since(t);
    let t = Instant::now();
    let lint = verify_program(&program);
    l.verify_s += clock.since(t);
    l.verify_cases += 1;
    let musttrap = lint.has_must_trap();
    let static_errors = lint.at_least(Severity::Error).count();

    let mut runs = Vec::with_capacity(TIERS.len());
    for (i, tier) in TIERS.into_iter().enumerate() {
        let cfg = SimConfig {
            tier,
            ..SimConfig::isca2018(rt.clone())
        };
        let t = Instant::now();
        let program = lower(case);
        l.build_s += clock.since(t);
        let t = Instant::now();
        let mut emu = Emulator::new(program, &cfg);
        l.construct_s += clock.since(t);
        let t = Instant::now();
        emu.run_functional();
        l.tier_s[i] += clock.since(t);
        l.functional_insts += emu.insts();
        match tier {
            ExecTier::Fast => {
                l.note_runtime(&emu);
                l.decode_invalidations += emu.decode_cache_stats().0;
            }
            ExecTier::Trace => {
                l.trace_tier_insts += emu.insts();
                l.traced_insts += emu.traced_insts();
            }
            ExecTier::Reference => {}
        }
        let insts = emu.insts();
        let stop = emu.take_stop().expect("run_functional stops");
        let detected = matches!(stop, StopReason::Violation(_)) || emu.take_deferred().is_some();
        runs.push(FnRun {
            stop: stop_label(&stop),
            detected,
            output: emu.runtime().output().to_vec(),
            insts,
        });
    }
    let reference = &runs[0];
    let tier_divergence = runs[1..].iter().any(|r| r != reference);

    let t = Instant::now();
    let program = lower(case);
    l.build_s += clock.since(t);
    let t = Instant::now();
    let (emu, pipe) = construct_timing(program, &SimConfig::isca2018(rt.clone()));
    l.construct_s += clock.since(t);
    let timing = l.full_loop(emu, pipe);
    let timing_divergence = stop_label(&timing.stop).0 != reference.stop.0
        || timing.output != reference.output
        || timing.insts != reference.insts;

    if tier_divergence {
        Class::TierDivergence
    } else if timing_divergence {
        Class::TimingDivergence
    } else {
        classify(case.truth, reference.detected, musttrap, static_errors)
    }
}

/// What one traced pass produced.
struct TracedPass {
    /// One line per case whose re-driven class differs from `run_case`'s
    /// or is rejected.
    failures: Vec<String>,
    /// Class counts, tracing overhead and reconciliation.
    info: Vec<String>,
    /// [`Layers::metrics`] of the pass.
    metrics: Vec<Metric>,
}

/// One traced pass. Per case: `run_case` (untraced reference), the
/// re-driven tri-oracle, and the step-only and bare-loop passes over
/// the timing oracle's program.
fn traced_pass(cases: &[Case], rt: &RtConfig) -> TracedPass {
    let clock = Clock::calibrate();
    let mut l = Layers::default();
    let mut failures = Vec::new();
    let mut classes = Vec::with_capacity(cases.len());
    for case in cases {
        let t = Instant::now();
        let want = run_case(case, rt).class;
        l.untraced_wall_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let got = redrive(case, rt, &mut l, &clock);
        l.traced_wall_s += t.elapsed().as_secs_f64();
        if rejected(want) || got != want {
            failures.push(format!(
                "FAILED case {}: run_case {}, re-driven {}",
                case.index,
                want.name(),
                got.name()
            ));
        }
        classes.push(want);
        l.split_passes(|| lower(case), &SimConfig::isca2018(rt.clone()), &clock);
    }
    let mut info = vec![format!(
        "fuzz-corpus traced: {} cases re-driven, timer {:.1} ns per reading; classes: {}",
        cases.len(),
        clock.now_cost * 1e9,
        class_counts(&classes)
    )];
    info.extend(l.reconciliation());
    TracedPass {
        failures,
        info,
        metrics: l.metrics(),
    }
}

fn parse_traced(text: &str) -> Result<TracedPass, String> {
    let template = Layers::default().metrics();
    let values: Vec<&str> = lines_of(text, "metric").collect();
    if values.len() != template.len() {
        return Err("pass process printed the wrong metrics".into());
    }
    let metrics = template
        .iter()
        .zip(values)
        .map(|(m, line)| match line.split_once(' ') {
            Some((name, v)) if name == m.name => Ok(metric(m.name, parse(v)?, m.unit)),
            _ => Err(format!("pass process printed {line:?} for {}", m.name)),
        })
        .collect::<Result<_, String>>()?;
    Ok(TracedPass {
        failures: lines_of(text, "fail").map(String::from).collect(),
        info: lines_of(text, "info").map(String::from).collect(),
        metrics,
    })
}

/// Traced passes, each in a fresh process like the untraced ones
/// (per-metric medians; `#` lines from the first pass).
fn traced(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut reps = Vec::new();
    let mut first = None;
    for _ in 0..pass_count(args.seconds, NOMINAL_TRACED_PASS_S) {
        o.attempted += CASES as u64;
        match spawn_pass("fuzz-corpus", args.seed, true).and_then(|text| parse_traced(&text)) {
            Ok(t) => {
                o.failed += t.failures.len() as u64;
                o.info.extend(t.failures);
                first.get_or_insert(t.info);
                reps.push(t.metrics);
            }
            Err(e) => {
                o.failed += CASES as u64;
                o.info.push(format!("FAILED pass: {e}"));
            }
        }
    }
    o.info.extend(first.unwrap_or_default());
    o.info.push(format!(
        "per-layer metrics are medians of {} traced passes, one process each",
        reps.len()
    ));
    o.metrics = median_metrics(&reps);
    o
}
