//! `fig7-test`: the Figure 7 matrix (16 figure rows × plain + 7
//! hardened columns) at `Scale::Test` — the scale CI gates — through
//! `Engine::run_matrix` and the JSON sink on the default Fast tier: the
//! timing path behind every paper figure. At `Scale::Ref` one pass of
//! the matrix takes about 9 s on two workers, so a run times each cell
//! only a few times and ten runs spread past the 0.25 bound on a
//! 2-thread host; at `Scale::Test` a run fits about ten passes.

use std::hint::black_box;
use std::time::Instant;

use rest_bench::engine::{ColumnSpec, Engine, MatrixResults, MatrixSpec};
use rest_bench::{fig7_configs, figure_rows, sink, stack_for, wtd_ari_mean_overhead, FigureRow};
use rest_cpu::{SimConfig, StopReason, System};
use rest_isa::Program;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, WorkloadParams};

use crate::layers::{construct_timing, Clock, Layers};
use crate::{
    end_to_end, fastest, median_metrics, numbers, pass_count, peak_rss_mb, print_numbers,
    spawn_pass, time_setups, Args, Digest, Outcome,
};

/// The paper's WtdAriMean overhead band `[lo, hi]` (percent) for the
/// three columns the gap is reported on, from DESIGN.md's "Expected
/// shapes": ASan ≈ 40%, REST debug ≈ 23–25%, REST secure ≈ 2%.
pub const PAPER_WTD_ARI_MEAN: [(&str, &str, f64, f64); 3] = [
    ("asan", "asan", 40.0, 40.0),
    ("rest_debug", "rest-debug-full", 23.0, 25.0),
    ("rest_secure", "rest-secure-full", 2.0, 2.0),
];

/// Setups of every cell in one setup process, taken before each pass;
/// `setup_s` sums each cell's fastest over all of them. A setup
/// allocates about a megabyte of cache-model state, and in the
/// long-lived process that runs the matrix its cost doubles and drifts
/// with the heap state the passes leave behind, so it is sampled in
/// fresh processes.
const SETUP_ROUNDS: usize = 2;

/// Engine workers: one, so no cell is timed while another simulation
/// competes for the host's caches and memory bandwidth.
const WORKERS: usize = 1;

/// Nominal seconds of one untraced pass (setup plus the matrix) and of
/// one traced pass, for [`pass_count`].
const NOMINAL_PASS_S: f64 = 2.3;
const NOMINAL_TRACED_PASS_S: f64 = 4.7;

/// Input scale of every cell.
const SCALE: Scale = Scale::Test;

/// The figure rows, each with its committed seed `^ seed`.
pub fn rows(seed: u64) -> Vec<FigureRow> {
    figure_rows()
        .into_iter()
        .map(|r| FigureRow {
            seed: r.seed ^ seed,
            ..r
        })
        .collect()
}

fn spec(seed: u64) -> MatrixSpec {
    let columns = fig7_configs()
        .into_iter()
        .map(|rt| ColumnSpec::new(rt.label(), rt))
        .collect();
    MatrixSpec::new(rows(seed), columns, SCALE)
}

/// Every cell in `run_matrix` submission order: per row, plain first.
fn cells(spec: &MatrixSpec) -> Vec<(FigureRow, RtConfig)> {
    spec.rows
        .iter()
        .flat_map(|row| {
            std::iter::once(RtConfig::plain())
                .chain(spec.columns.iter().map(|c| c.rt.clone()))
                .map(move |rt| (*row, rt))
        })
        .collect()
}

/// The program `SimJob::execute` builds for a cell.
pub fn build(row: &FigureRow, rt: &RtConfig, scale: Scale) -> Program {
    row.workload.build(&WorkloadParams {
        scale,
        stack_scheme: stack_for(rt),
        token_width: rt.token_width,
        seed: row.seed,
    })
}

/// Builds a cell's program and machine, as `SimJob::execute` does.
fn setup((row, rt): &(FigureRow, RtConfig)) {
    black_box(System::new(
        build(row, rt, SCALE),
        SimConfig::isca2018(rt.clone()),
    ));
}

/// A setup process (`--pass`): [`SETUP_ROUNDS`] setups of every cell,
/// printed as each cell's fastest.
pub fn child_setup(args: &Args) {
    let cells = cells(&spec(args.seed));
    let rounds: Vec<Vec<f64>> = (0..SETUP_ROUNDS)
        .map(|_| time_setups(&cells, 1, setup))
        .collect();
    print_numbers("setup", &fastest(rounds.iter().map(Vec::as_slice)));
}

/// One untraced pass through the public entry points.
struct MatrixPass {
    matrix: MatrixResults,
    wall_s: f64,
    run_matrix_s: f64,
    render_s: f64,
    /// Wall of each freshly simulated job, and how many jobs hit the cache.
    job_walls: Vec<f64>,
    cache_hits: u64,
    digest: Digest,
}

fn matrix_pass(spec: &MatrixSpec, workers: usize) -> MatrixPass {
    let engine = Engine::new(workers);
    let t = Instant::now();
    let matrix = engine.run_matrix(spec);
    let run_matrix_s = t.elapsed().as_secs_f64();
    let r = Instant::now();
    let doc = sink::matrix_json(&matrix).to_string_pretty();
    let render_s = r.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let timings = engine.take_timings();
    let mut digest = Digest::default();
    digest.str(&doc);
    MatrixPass {
        wall_s,
        run_matrix_s,
        render_s,
        job_walls: timings
            .iter()
            .filter(|j| !j.cached)
            .map(|j| j.wall.as_secs_f64())
            .collect(),
        cache_hits: timings.iter().filter(|j| j.cached).count() as u64,
        digest,
        matrix,
    }
}

/// Per-cell results in [`cells`] order; `None` for a failed job.
fn results(m: &MatrixResults) -> Vec<Option<&rest_cpu::SimResult>> {
    m.rows
        .iter()
        .flat_map(|r| r.plain.iter().chain(r.cells.iter()))
        .map(|o| o.as_ref().as_ref().ok())
        .collect()
}

/// Cells that did not stop with `Exit(0)`, reported by name.
fn failed_cells(m: &MatrixResults, cells: &[(FigureRow, RtConfig)], info: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (r, (row, rt)) in results(m).iter().zip(cells) {
        if !r.is_some_and(|r| r.stop == StopReason::Exit(0)) {
            failed += 1;
            info.push(format!(
                "FAILED {} {}: did not stop with Exit(0)",
                row.name,
                rt.label()
            ));
        }
    }
    failed
}

/// Simulated WtdAriMean of each tracked column and its distance in
/// percentage points to the paper's band (zero inside it).
fn paper_gaps(m: &MatrixResults) -> String {
    let parts: Vec<String> = PAPER_WTD_ARI_MEAN
        .iter()
        .map(|&(key, label, lo, hi)| {
            let col = m
                .columns
                .iter()
                .position(|c| c.label == label)
                .expect("fig7 column");
            let (mut plain, mut hardened) = (Vec::new(), Vec::new());
            for row in &m.rows {
                if let (Some(p), Some(h)) = (row.plain_result(), row.cell(col)) {
                    plain.push(p.cycles());
                    hardened.push(h.cycles());
                }
            }
            let x = wtd_ari_mean_overhead(&plain, &hardened);
            let gap = (lo - x).max(x - hi).max(0.0);
            format!("paper_gap_pp.{key} {gap:.2} (simulated {x:.2}%, paper {lo}-{hi}%)")
        })
        .collect();
    parts.join(" | ")
}

pub fn run(args: &Args) -> Outcome {
    let spec = spec(args.seed);
    let cells = cells(&spec);
    if args.trace {
        return traced(&spec, &cells, args.seconds);
    }
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let passes: Vec<MatrixPass> = (0..pass_count(args.seconds, NOMINAL_PASS_S))
        .map(|_| {
            match spawn_pass("fig7-test", args.seed, false)
                .and_then(|text| numbers(&text, "setup"))
                .and_then(|s| {
                    (s.len() == cells.len())
                        .then_some(s)
                        .ok_or_else(|| "wrong number of setups".to_string())
                }) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    o.failed += 1;
                    o.info.push(format!("FAILED setup process: {e}"));
                }
            }
            matrix_pass(&spec, WORKERS)
        })
        .collect();
    let setup_s: f64 = fastest(setups.iter().map(Vec::as_slice)).iter().sum();
    for p in &passes {
        o.attempted += cells.len() as u64;
        o.failed += failed_cells(&p.matrix, &cells, &mut o.info);
    }
    if passes.iter().any(|p| p.digest != passes[0].digest) {
        o.failed += 1;
        o.info
            .push("FAILED simulated stats differ between passes".into());
    }
    let cell_s = fastest(passes.iter().map(|p| &p.job_walls[..]));
    let render_s = passes
        .iter()
        .map(|p| p.render_s)
        .fold(f64::INFINITY, f64::min);
    let insts: u64 = results(&passes[0].matrix)
        .iter()
        .flatten()
        .map(|r| r.core.insts)
        .sum();
    o.info.push(format!(
        "fig7-test: {} cells x {} passes on {WORKERS} engine workers, {insts} insts per pass; stats digest {}",
        cells.len(),
        passes.len(),
        passes[0].digest.hex()
    ));
    o.info.push(paper_gaps(&passes[0].matrix));
    let simulate_s = cell_s.iter().sum::<f64>() - setup_s;
    o.metrics = end_to_end(&cell_s, render_s, setup_s, simulate_s, insts, peak_rss_mb());
    o
}

/// Traced passes (per-metric medians): the untraced matrix pass for
/// reference, then per cell the `System::run` loop re-driven with layer
/// timers and the step-only and bare-loop passes the loop's split is
/// derived from.
fn traced(spec: &MatrixSpec, cells: &[(FigureRow, RtConfig)], seconds: f64) -> Outcome {
    let clock = Clock::calibrate();
    let mut o = Outcome::default();
    let mut reps = Vec::new();
    let mut first = None;
    for _ in 0..pass_count(seconds, NOMINAL_TRACED_PASS_S) {
        let base = matrix_pass(spec, WORKERS);
        o.attempted += cells.len() as u64;
        o.failed += failed_cells(&base.matrix, cells, &mut o.info);
        let mut l = Layers {
            untraced_wall_s: base.wall_s,
            engine_jobs: base.job_walls.len() as u64 + base.cache_hits,
            engine_cache_hits: base.cache_hits,
            engine_overhead_s: base.run_matrix_s - base.job_walls.iter().sum::<f64>(),
            sink_render_s: base.render_s,
            ..Layers::default()
        };
        // Each cell's split passes run right after its re-driven loop,
        // so a slow phase of the host hits the passes being subtracted
        // alike.
        for ((row, rt), want) in cells.iter().zip(results(&base.matrix)) {
            let cfg = SimConfig::isca2018(rt.clone());
            let wall = Instant::now();
            let t = Instant::now();
            let program = build(row, rt, SCALE);
            l.build_s += clock.since(t);
            let t = Instant::now();
            let (emu, pipe) = construct_timing(program, &cfg);
            l.construct_s += clock.since(t);
            let got = l.full_loop(emu, pipe);
            // A failed job was already counted by `failed_cells`.
            if want.is_some_and(|w| w.stop != got.stop || w.stats_map() != got.stats) {
                o.failed += 1;
                o.info.push(format!(
                    "FAILED {} {}: re-driven loop differs from System::run ({:?})",
                    row.name,
                    rt.label(),
                    got.stop
                ));
            }
            l.traced_wall_s += wall.elapsed().as_secs_f64();
            let emu = l.split_passes(|| build(row, rt, SCALE), &cfg, &clock);
            l.note_runtime(&emu);
            l.decode_invalidations += emu.decode_cache_stats().0;
        }
        if first.is_none() {
            let mut info = vec![format!(
                "fig7-test traced: {} cells re-driven, timer {:.1} ns per reading; stats digest {}",
                cells.len(),
                clock.now_cost * 1e9,
                base.digest.hex()
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
