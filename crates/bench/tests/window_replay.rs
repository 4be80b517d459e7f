//! The timing loop replays the emulator's micro-ops one window of
//! instructions at a time (DESIGN.md, "Timing loop"). These tests hold
//! `System::run` to a loop of public calls that replays each
//! instruction on its own, and hold the observers that shorten the
//! windows (guest profiling, interval sampling) to observation only.

use rest_attacks::Attack;
use rest_bench::engine::SimJob;
use rest_bench::{fig7_configs, figure_rows};
use rest_core::{Mode, RestExceptionKind, TokenWidth};
use rest_cpu::{stats_map_parts, Emulator, ExecEngine, Pipeline, SimConfig, StopReason, System};
use rest_isa::{DynInst, Program, ProgramBuilder, Reg};
use rest_mem::Hierarchy;
use rest_obs::{AuditLog, CpiStack};
use rest_runtime::RtConfig;
use rest_workloads::Scale;

/// Everything a timing run reports that the replay could move.
#[derive(Debug, PartialEq)]
struct Observed {
    stop: StopReason,
    stats: Vec<(&'static str, u64)>,
    cycles: u64,
    cpi: CpiStack,
    output: Vec<u8>,
    audit: AuditLog,
}

/// `System::run`: the windowed replay.
fn windowed(program: Program, cfg: &SimConfig) -> Observed {
    let r = System::new(program, cfg.clone()).run();
    Observed {
        stats: r.stats_map(),
        cycles: r.cycles(),
        cpi: r.core.cpi,
        stop: r.stop,
        output: r.output,
        audit: r.audit,
    }
}

/// The timing loop rebuilt from public calls, one instruction per
/// replay: step, stamp, process each micro-op, drop the pre-images.
fn per_instruction(program: Program, cfg: &SimConfig) -> Observed {
    let mut emu = Emulator::new(program, cfg);
    let hier = Hierarchy::new(cfg.mem.clone());
    let mut pipe = Pipeline::new(cfg.core.clone(), hier, cfg.rt.mode);
    let mut batch: Vec<DynInst> = Vec::new();
    while emu.step(&mut batch) {
        pipe.note_inst(emu.insts());
        for d in &batch {
            pipe.process(d, &emu.mem, emu.token());
        }
        batch.clear();
        emu.mem.clear_pre_images();
    }
    let mut core = pipe.finish();
    core.insts = emu.insts();
    core.elided_checks = emu.elided_checks();
    let mut audit = pipe.take_audit();
    let stop = emu.take_stop().unwrap_or(StopReason::Halted);
    let mode = cfg.rt.mode.name();
    let deferred = emu.take_deferred();
    let arch = match &stop {
        StopReason::Violation(v) => Some(v),
        _ => None,
    };
    for v in deferred.iter().chain(arch) {
        let mut entry = v.audit_entry(mode, "", core.insts);
        entry.component = emu.component_at(entry.pc).name();
        audit.record(entry);
    }
    Observed {
        stats: stats_map_parts(&core, pipe.mem_stats(), emu.runtime().allocator().stats()),
        cycles: core.cycles,
        cpi: core.cpi,
        stop,
        output: emu.runtime().output().to_vec(),
        audit,
    }
}

fn assert_lockstep(label: &str, program: Program, cfg: &SimConfig) -> Observed {
    let want = per_instruction(program.clone(), cfg);
    let got = windowed(program, cfg);
    assert_eq!(got.stop, want.stop, "{label}: stop");
    assert_eq!(got.stats, want.stats, "{label}: stats map");
    assert_eq!(got.cycles, want.cycles, "{label}: cycles");
    assert_eq!(got.cpi, want.cpi, "{label}: CPI stack");
    assert_eq!(got.output, want.output, "{label}: output");
    assert_eq!(
        got.audit.entries(),
        want.audit.entries(),
        "{label}: audit entries and their stamps"
    );
    assert_eq!(got, want, "{label}");
    got
}

/// Plain, then every Figure 7 column.
fn columns() -> Vec<RtConfig> {
    std::iter::once(RtConfig::plain())
        .chain(fig7_configs())
        .collect()
}

#[test]
fn every_figure_cell_replays_as_one_instruction_at_a_time() {
    let rows = figure_rows();
    assert_eq!(rows.len(), 16);
    for row in &rows {
        for rt in columns() {
            let job = SimJob::new(row, rt.label(), rt, Scale::Test);
            let label = format!("{} {}", row.name, job.label);
            let program = job.build().expect("row builds");
            let got = assert_lockstep(&label, program, &job.cfg);
            assert_eq!(got.stop, StopReason::Exit(0), "{label}");
        }
    }
}

#[test]
fn every_attack_replays_as_one_instruction_at_a_time() {
    assert_eq!(Attack::ALL.len(), 10);
    for attack in Attack::ALL {
        for rt in columns() {
            let job = SimJob::for_attack(attack, rt.label(), rt, Scale::Test);
            let label = format!("{} {}", attack.name(), job.label);
            let program = job.build().expect("attack builds");
            assert_lockstep(&label, program, &job.cfg);
        }
    }
}

/// Guest data lives here, far from the code and the stack.
const DATA: u64 = 0x40_0000;

/// The token a run under `cfg` generates (it depends only on the
/// configuration, not on the program).
fn token_of(cfg: &SimConfig) -> Vec<u8> {
    let mut p = ProgramBuilder::new();
    p.halt();
    Emulator::new(p.build(), cfg).token().bytes().to_vec()
}

/// Under plain there is no armed set, so `arm` only sends its micro-op
/// down the pipeline, and a store to the slot is legal. The store opens
/// a window (it writes memory) that runs on to `halt`; the LSQ rule and
/// the L1-D token bit both catch it, and every entry carries the
/// store's own instruction count.
#[test]
fn a_window_opening_store_is_stamped_with_its_own_instruction() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::T0, DATA as i64); // 1
    p.li(Reg::T1, 7); // 2
    p.arm(Reg::T0); // 3: a window of its own
    p.sd(Reg::T1, Reg::T0, 0); // 4: opens the next window
    for _ in 0..6 {
        p.addi(Reg::T2, Reg::T2, 1); // 5..=10
    }
    p.halt(); // 11
    let cfg = SimConfig::isca2018(RtConfig::plain());
    let got = assert_lockstep("store after arm", p.build(), &cfg);
    assert_eq!(got.stop, StopReason::Halted);
    let stamped: Vec<(&str, u64)> = got
        .audit
        .entries()
        .iter()
        .map(|e| (e.kind, e.insts))
        .collect();
    let kinds = [
        RestExceptionKind::StoreHitInflightArm,
        RestExceptionKind::TokenStore,
    ];
    assert_eq!(stamped, kinds.map(|k| (k.name(), 4)));
}

/// A line holding all of the token but its last word, then a load that
/// misses on it and a store that completes the token. The load's fill
/// must read the line as it stood before the store: no token, so no
/// detection. Replaying the store in the load's window would show the
/// fill the whole token.
#[test]
fn a_fill_does_not_see_the_next_store() {
    let cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, false));
    let token = token_of(&cfg);
    assert_eq!(token.len(), 64);
    let last = u64::from_le_bytes(token[56..].try_into().unwrap());
    let mut p = ProgramBuilder::new();
    p.data_segment(DATA, token[..56].to_vec());
    p.li(Reg::T0, DATA as i64);
    p.li(Reg::T1, last as i64);
    p.ld(Reg::T2, Reg::T0, 56); // misses: fills the line
    p.sd(Reg::T1, Reg::T0, 56); // completes the token in memory
    p.halt();
    let got = assert_lockstep("fill before store", p.build(), &cfg);
    assert_eq!(got.stop, StopReason::Halted);
    let stat = |name: &str| got.stats.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(stat("mem.token_detections_on_fill"), 0);
    assert_eq!(stat("mem.rest_exceptions"), 0);
    assert!(got.audit.is_empty(), "{:?}", got.audit.entries());
}

/// An `arm` of a 16-byte slot, eight loads that evict its line from
/// the 8-way L1-D, then a load of another slot of the line. The refill
/// must read the armed line (one token detected on fill), not the
/// pre-image the arm recorded for its own fill.
#[test]
fn pre_images_do_not_outlive_the_arms_window() {
    let mut rt = RtConfig::rest(Mode::Secure, false);
    rt.token_width = TokenWidth::B16;
    let cfg = SimConfig::isca2018(rt);
    let way_stride = (cfg.mem.l1d.size_bytes / cfg.mem.l1d.assoc as u64) as i64;
    let mut p = ProgramBuilder::new();
    p.li(Reg::T0, DATA as i64);
    p.arm(Reg::T0);
    for k in 1..=cfg.mem.l1d.assoc as i64 {
        p.li(Reg::T1, DATA as i64 + k * way_stride);
        p.ld(Reg::T2, Reg::T1, 0);
    }
    p.ld(Reg::T2, Reg::T0, 32); // another slot of the armed line
    p.halt();
    let got = assert_lockstep("refill after arm", p.build(), &cfg);
    assert_eq!(got.stop, StopReason::Halted);
    let stat = |name: &str| got.stats.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(stat("mem.token_detections_on_fill"), 1);
}

/// Guest profiling and interval sampling only observe: turning either
/// on moves no stat, cycle, audit entry or output, though such runs
/// replay in one-instruction (profiling) or interval-bounded
/// (sampling) windows while the figures replay in long ones.
#[test]
fn profiling_and_sampling_are_observation_only() {
    let schemes = [
        RtConfig::plain(),
        RtConfig::asan(),
        RtConfig::rest(Mode::Secure, true),
    ];
    for row in figure_rows() {
        for rt in &schemes {
            let job = SimJob::new(&row, rt.label(), rt.clone(), Scale::Test);
            let label = format!("{} {}", row.name, job.label);
            let program = job.build().expect("row builds");
            let base = windowed(program.clone(), &job.cfg);
            let mut profiled = job.cfg.clone();
            profiled.profile_guest = true;
            let mut sampled = job.cfg.clone();
            sampled.sample_interval = 997;
            for (observer, cfg) in [("profile_guest", profiled), ("sample_interval", sampled)] {
                let got = windowed(program.clone(), &cfg);
                assert_eq!(got, base, "{label}: {observer} moved the run");
            }
        }
    }
}
