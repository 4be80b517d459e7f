//! `functional-sweep`: `run_functional` on the default Fast tier over
//! the figure rows under plain, ASan and REST secure-full at reference
//! scale. The same emulator as the timing path, in counting mode, with
//! no pipeline or hierarchy: a timing-path optimisation should leave it
//! flat, and an emulator change that trades the counting path for uop
//! materialisation shows up here as a loss.

use std::hint::black_box;
use std::time::Instant;

use rest_bench::FigureRow;
use rest_cpu::{Emulator, ExecEngine, SimConfig, StopReason};
use rest_runtime::RtConfig;
use rest_workloads::Scale;

use crate::fig7::{build, rows};
use crate::layers::{inst_kinds, Clock, Layers};
use crate::{
    end_to_end, fastest, median_metrics, pass_count, peak_rss_mb, time_setups, Args, Digest,
    Outcome,
};

const CONFIGS: [&str; 3] = ["plain", "asan", "rest-secure-full"];

fn cells(seed: u64) -> Vec<(FigureRow, RtConfig)> {
    rows(seed)
        .into_iter()
        .flat_map(|row| {
            CONFIGS.map(|label| {
                (
                    row,
                    RtConfig::from_label(label).expect("known configuration"),
                )
            })
        })
        .collect()
}

/// What one functional run produced, compared across passes.
#[derive(Debug, PartialEq, Eq)]
struct CellResult {
    stop: StopReason,
    insts: u64,
    uops: u64,
    checks: u64,
    allocs: u64,
    output: Vec<u8>,
}

fn cell_result(emu: &Emulator) -> CellResult {
    CellResult {
        stop: emu.stop_reason().cloned().unwrap_or(StopReason::Halted),
        insts: emu.insts(),
        uops: emu.uops(),
        checks: emu.backend().check_count(),
        allocs: emu.runtime().allocator().stats().allocs,
        output: emu.runtime().output().to_vec(),
    }
}

/// Back-to-back setups per cell and sample (a setup takes a few
/// microseconds), one sample per cell before each pass; `setup_s` sums
/// each cell's fastest.
const SETUP_REPS: usize = 32;

/// Nominal seconds of one untraced and one traced pass, for
/// [`pass_count`].
const NOMINAL_PASS_S: f64 = 1.1;
const NOMINAL_TRACED_PASS_S: f64 = 2.7;

/// Builds a cell's program and emulator.
fn setup((row, rt): &(FigureRow, RtConfig)) {
    black_box(Emulator::new(
        build(row, rt, Scale::Ref),
        &SimConfig::isca2018(rt.clone()),
    ));
}

/// One untraced pass: per cell, build plus construct, then
/// `run_functional`, each timed.
struct Pass {
    wall_s: f64,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    results: Vec<CellResult>,
}

fn pass(cells: &[(FigureRow, RtConfig)]) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        setup_s: Vec::with_capacity(cells.len()),
        run_s: Vec::with_capacity(cells.len()),
        results: Vec::with_capacity(cells.len()),
    };
    let wall = Instant::now();
    for (row, rt) in cells {
        let t0 = Instant::now();
        let mut emu = Emulator::new(build(row, rt, Scale::Ref), &SimConfig::isca2018(rt.clone()));
        let t1 = Instant::now();
        emu.run_functional();
        let t2 = Instant::now();
        p.setup_s.push((t1 - t0).as_secs_f64());
        p.run_s.push((t2 - t1).as_secs_f64());
        p.results.push(cell_result(&emu));
    }
    p.wall_s = wall.elapsed().as_secs_f64();
    p
}

fn digest(results: &[CellResult]) -> Digest {
    let mut d = Digest::default();
    for r in results {
        d.str(&format!("{:?}", r.stop));
        for v in [r.insts, r.uops, r.checks, r.allocs] {
            d.u64(v);
        }
        d.bytes(&r.output);
    }
    d
}

/// Checks every cell stopped with `Exit(0)`; returns the failures.
fn check(results: &[CellResult], cells: &[(FigureRow, RtConfig)], info: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (r, (row, rt)) in results.iter().zip(cells) {
        if r.stop != StopReason::Exit(0) {
            failed += 1;
            info.push(format!(
                "FAILED {} {}: stopped with {:?}",
                row.name,
                rt.label(),
                r.stop
            ));
        }
    }
    failed
}

pub fn run(args: &Args) -> Outcome {
    let cells = cells(args.seed);
    if args.trace {
        return traced(&cells, args.seconds);
    }
    let mut setups = Vec::new();
    let passes: Vec<Pass> = (0..pass_count(args.seconds, NOMINAL_PASS_S))
        .map(|_| {
            setups.push(time_setups(&cells, SETUP_REPS, setup));
            pass(&cells)
        })
        .collect();
    let setup_s: f64 = fastest(setups.iter().map(Vec::as_slice)).iter().sum();
    let mut o = Outcome::default();
    let want = digest(&passes[0].results);
    for p in &passes {
        o.attempted += cells.len() as u64;
        o.failed += check(&p.results, &cells, &mut o.info);
        if digest(&p.results) != want {
            o.failed += 1;
            o.info
                .push("FAILED simulated results differ between passes".into());
        }
    }
    let sums: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.setup_s.iter().zip(&p.run_s).map(|(a, b)| a + b).collect())
        .collect();
    let cell_s = fastest(sums.iter().map(Vec::as_slice));
    let run_s: f64 = fastest(passes.iter().map(|p| &p.run_s[..])).iter().sum();
    let glue_s = passes
        .iter()
        .map(|p| p.wall_s - p.setup_s.iter().chain(&p.run_s).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    let insts: u64 = passes[0].results.iter().map(|r| r.insts).sum();
    o.info.push(format!(
        "functional-sweep: {} cells x {} passes on 1 thread, {insts} insts per pass; stats digest {}",
        cells.len(),
        passes.len(),
        want.hex()
    ));
    o.metrics = end_to_end(&cell_s, glue_s, setup_s, run_s, insts, peak_rss_mb());
    o
}

/// Traced passes (per-metric medians): the untraced pass, the same
/// calls with a timer per phase, and a `step_quiet` pass that yields
/// the ecall share of the counting path.
fn traced(cells: &[(FigureRow, RtConfig)], seconds: f64) -> Outcome {
    let clock = Clock::calibrate();
    let mut o = Outcome::default();
    let mut reps = Vec::new();
    let mut first = None;
    for _ in 0..pass_count(seconds, NOMINAL_TRACED_PASS_S) {
        let base = pass(cells);
        o.attempted += cells.len() as u64;
        o.failed += check(&base.results, cells, &mut o.info);
        let mut l = Layers {
            untraced_wall_s: base.wall_s,
            ..Layers::default()
        };
        let wall = Instant::now();
        for ((row, rt), want) in cells.iter().zip(&base.results) {
            let cfg = SimConfig::isca2018(rt.clone());
            let t = Instant::now();
            let program = build(row, rt, Scale::Ref);
            l.build_s += clock.since(t);
            let t = Instant::now();
            let mut emu = Emulator::new(program, &cfg);
            l.construct_s += clock.since(t);
            let t = Instant::now();
            emu.run_functional();
            l.tier_s[1] += clock.since(t);
            l.functional_insts += emu.insts();
            l.decode_invalidations += emu.decode_cache_stats().0;
            l.note_runtime(&emu);
            if cell_result(&emu) != *want {
                o.failed += 1;
                o.info.push(format!(
                    "FAILED {} {}: traced run differs",
                    row.name,
                    rt.label()
                ));
            }
        }
        l.traced_wall_s = wall.elapsed().as_secs_f64();
        for (row, rt) in cells {
            let program = build(row, rt, Scale::Ref);
            let kinds = inst_kinds(&program);
            let mut emu = Emulator::new(program, &SimConfig::isca2018(rt.clone()));
            l.quiet_only(&mut emu, &kinds, &clock);
        }
        if first.is_none() {
            let mut info = vec![format!(
                "functional-sweep traced: {} cells, timer {:.1} ns per reading; stats digest {}",
                cells.len(),
                clock.now_cost * 1e9,
                digest(&base.results).hex()
            )];
            info.extend(l.reconciliation());
            first = Some(info);
        }
        reps.push(l.metrics());
    }
    o.info.extend(first.unwrap_or_default());
    o.info.push(format!(
        "per-layer metrics are medians of {} traced passes",
        reps.len()
    ));
    o.metrics = median_metrics(&reps);
    o
}
