//! Golden stage timestamps for the out-of-order timing model.
//!
//! Fixed micro-op streams are replayed through [`Pipeline`] with stage
//! tracing on, and every micro-op's fetch, dispatch, issue, complete and
//! commit cycles are pinned, in secure and debug mode. Aggregate cycle
//! counts can hide an off-by-one in a scoreboard (a ring slot read one
//! micro-op early on one path and one late on another); pinned per-stage
//! timestamps cannot.
//!
//! The streams wrap every scoreboard ring (ROB 192, IQ 64, SQ/LQ 32, six
//! ALUs, two multipliers, two L1-D ports, the dispatch and commit
//! widths) several times, and mix ALU, multiply, divide, load, store,
//! arm, disarm and mispredicted branches. They also hold loads that fully
//! and partially overlap a store still draining more than 32 stores back,
//! outside the store window the LSQ searches.
//!
//! Each stream is pinned by an FNV-1a digest of all its timestamps plus
//! explicit rows at the scenario micro-ops and every 64th micro-op; a
//! failing assertion prints the rows that moved. The run's stall counters
//! and its CPI stack, component by component, are pinned too: the
//! timestamps fix when each micro-op commits, not which stall the
//! frontier's advance is charged to.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rest_core::{Mode, Token, TokenWidth};
use rest_cpu::{CoreConfig, CoreStats, Pipeline, TraceEntry};
use rest_isa::{BranchInfo, DynInst, GuestMemory, OpKind, Reg};
use rest_mem::{Hierarchy, MemConfig};
use rest_obs::CpiComponent;

/// The line stored to first and left draining from DRAM while the
/// store window fills with younger stores.
const FAR_STORE: u64 = 0x80_0000;
/// Stores between the far store and the loads that overlap it: exactly
/// enough to push it out of the 32-entry store window. The last of them
/// waits in dispatch for the far store's SQ entry, but the loads right
/// behind it do not (dispatch is width-limited, not in order), so they
/// issue while the far store still drains.
const YOUNGER_STORES: u64 = 32;
/// Length of the random mixed phase.
const MIXED_UOPS: u64 = 900;

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn reg(n: u64) -> Reg {
    // t0..t2, s0..s1, a0..a7: registers 5..17.
    Reg::new(5 + (n % 13) as u8)
}

fn branch(pc: u64, src: Reg, taken: bool) -> DynInst {
    DynInst::branch(
        pc,
        [Some(src), None],
        None,
        BranchInfo {
            taken,
            target: pc + 64,
            conditional: true,
            is_call: false,
            is_return: false,
            indirect: false,
        },
    )
}

/// The stream: a far-store scenario, then a random mix.
fn stream() -> Vec<DynInst> {
    let mut v = Vec::new();
    // The scenario runs from one I-cache line, so only its first fetch
    // misses; the mix loops over 16 lines.
    let mut k = 0u64;
    let mut pc_in = |lines: u64| {
        k += 1;
        0x1_0000 + (k % (16 * lines)) * 4
    };
    let mut next_pc = || pc_in(1);
    // ---- Far-store scenario ----
    // A store to a cold line drains from DRAM long after it commits.
    v.push(DynInst::store(next_pc(), Some(Reg::A0), None, FAR_STORE, 8));
    // Younger stores to one hot line push it out of the 32-entry window
    // the LSQ searches.
    for i in 0..YOUNGER_STORES {
        v.push(DynInst::store(
            next_pc(),
            Some(Reg::A1),
            None,
            0x9000 + (i % 8) * 8,
            8,
        ));
    }
    // A load contained in the far store, one partially overlapping it,
    // a load forwarding from a young store, one partially overlapping a
    // young store, and one hitting an in-flight arm.
    v.push(DynInst::load(next_pc(), Some(Reg::A2), None, FAR_STORE, 8));
    v.push(DynInst::load(
        next_pc(),
        Some(Reg::A3),
        None,
        FAR_STORE - 4,
        8,
    ));
    v.push(DynInst::load(next_pc(), Some(Reg::A4), None, 0x9008, 8));
    v.push(DynInst::load(next_pc(), Some(Reg::A5), None, 0x9004, 8));
    v.push(DynInst::arm(next_pc(), None, 0xa000, 64));
    v.push(DynInst::load(next_pc(), Some(Reg::A6), None, 0xa010, 8));
    v.push(DynInst::disarm(next_pc(), None, 0xa000, 64));
    v.push(DynInst::disarm(next_pc(), None, 0xa000, 64));

    // ---- Random mix ----
    let mut rng = Lcg(0x5eed);
    let mut armed: Vec<u64> = Vec::new();
    for _ in 0..MIXED_UOPS {
        let r = rng.next();
        let (dst, s1, s2) = (reg(rng.next()), reg(rng.next()), reg(rng.next()));
        // Mostly a hot 8 KiB region, sometimes a cold page (L2/DRAM).
        let addr = if r.is_multiple_of(7) {
            0x40_0000 + (rng.next() % 64) * 4096
        } else {
            0x2_0000 + (rng.next() % 1024) * 8
        };
        let pc = pc_in(16);
        let d = match r % 20 {
            0..=6 => DynInst::alu(pc, Some(dst), [Some(s1), Some(s2)]),
            7 | 8 => DynInst::alu(pc, Some(dst), [Some(s1), None]).with_kind(OpKind::IntMul),
            9 => DynInst::alu(pc, Some(dst), [Some(s1), None]).with_kind(OpKind::IntDiv),
            10..=12 => DynInst::load(pc, Some(dst), Some(s1), addr, 8),
            13 | 14 => DynInst::store(pc, Some(s2), Some(s1), addr, 8),
            15 => {
                let slot = 0x3_0000 + (rng.next() % 32) * 64;
                armed.push(slot);
                DynInst::arm(pc, Some(s1), slot, 64)
            }
            16 if !armed.is_empty() => {
                let slot = armed.remove((rng.next() as usize) % armed.len());
                DynInst::disarm(pc, Some(s1), slot, 64)
            }
            16 | 17 => DynInst::load(
                pc,
                Some(dst),
                Some(s1),
                0x3_0000 + (rng.next() % 256) * 8,
                8,
            ),
            // Pseudo-random directions: mispredicted often.
            _ => branch(pc, s1, rng.next().is_multiple_of(2)),
        };
        v.push(d);
    }
    v
}

/// Replays [`stream`] in `mode` and returns its trace and statistics.
fn replay(mode: Mode) -> (Vec<TraceEntry>, CoreStats) {
    let uops = stream();
    let mut p = Pipeline::new(
        CoreConfig::isca2018(),
        Hierarchy::new(MemConfig::isca2018()),
        mode,
    );
    p.enable_trace(uops.len());
    let mem = GuestMemory::new();
    let token = Token::generate(TokenWidth::B64, &mut StdRng::seed_from_u64(1));
    for d in &uops {
        p.process(d, &mem, &token);
    }
    let trace = p.take_trace().expect("tracing enabled");
    assert_eq!(trace.entries().len(), uops.len());
    (trace.entries().to_vec(), p.finish())
}

fn stages(e: &TraceEntry) -> [u64; 5] {
    [e.fetch, e.dispatch, e.issue, e.complete, e.commit]
}

fn digest(entries: &[TraceEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in entries {
        for t in stages(e) {
            for b in t.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Micro-op indices pinned row by row: the far store, the scenario's
/// loads, arm and disarms, and every 64th micro-op.
fn pinned_rows() -> Vec<usize> {
    let first_load = 1 + YOUNGER_STORES as usize;
    let mut rows: Vec<usize> = (0..=first_load + 7)
        .filter(|&i| i == 0 || i >= first_load)
        .collect();
    rows.extend((64..(first_load + 8 + MIXED_UOPS as usize)).step_by(64));
    rows
}

struct Golden {
    digest: u64,
    cycles: u64,
    /// `(index, [fetch, dispatch, issue, complete, commit])`.
    rows: &'static [(usize, [u64; 5])],
    store_forwards: u64,
    load_partial_stalls: u64,
    lsq_rest_exceptions: u64,
    branch_mispredicts: u64,
    /// `[rob, iq, lsq, fetch]` stall cycles, then ROB-blocked-by-store
    /// cycles.
    stalls: [u64; 5],
    /// The CPI stack in [`CpiComponent::ALL`] order.
    cpi: [u64; 11],
}

fn check(mode: Mode, golden: &Golden) {
    let (entries, stats) = replay(mode);
    let actual: Vec<(usize, [u64; 5])> = pinned_rows()
        .into_iter()
        .map(|i| (i, stages(&entries[i])))
        .collect();
    let moved: Vec<String> = actual
        .iter()
        .zip(golden.rows)
        .filter(|(a, g)| a != g)
        .map(|(a, g)| format!("uop {}: {:?} (golden {:?})", a.0, a.1, g.1))
        .collect();
    assert!(
        moved.is_empty(),
        "{mode:?}: stage timestamps moved:\n{}",
        moved.join("\n")
    );
    assert_eq!(
        actual.len(),
        golden.rows.len(),
        "{mode:?}: pinned row count"
    );
    assert_eq!(
        (
            stats.store_forwards,
            stats.load_partial_stalls,
            stats.lsq_rest_exceptions,
            stats.branch_mispredicts,
        ),
        (
            golden.store_forwards,
            golden.load_partial_stalls,
            golden.lsq_rest_exceptions,
            golden.branch_mispredicts,
        ),
        "{mode:?}: forwards, partial stalls, LSQ exceptions, mispredicts"
    );
    assert_eq!(stats.cycles, golden.cycles, "{mode:?}: cycles");
    assert_eq!(
        [
            stats.rob_stall_cycles,
            stats.iq_stall_cycles,
            stats.lsq_stall_cycles,
            stats.fetch_stall_cycles,
            stats.rob_blocked_store_cycles,
        ],
        golden.stalls,
        "{mode:?}: rob, iq, lsq, fetch stall and ROB-blocked-by-store cycles"
    );
    assert_eq!(
        CpiComponent::ALL.map(|c| stats.cpi.get(c)),
        golden.cpi,
        "{mode:?}: CPI stack (base, fetch_stall, branch, iq, rob, lsq, \
         l1d_miss, l2_miss, dram, store_drain, rest_check)"
    );
    assert_eq!(
        digest(&entries),
        golden.digest,
        "{mode:?}: digest of every timestamp"
    );
}

#[test]
fn secure_mode_stage_timestamps_are_pinned() {
    let golden = Golden {
        digest: 0x6ffc_8ed1_13ce_0493,
        cycles: 10_293,
        rows: &[
            (0, [112, 118, 119, 120, 121]),
            (33, [116, 122, 153, 155, 264]),
            (34, [116, 122, 265, 377, 378]),
            (35, [116, 122, 123, 124, 378]),
            (36, [116, 122, 154, 156, 378]),
            (37, [116, 379, 380, 381, 382]),
            (38, [116, 122, 123, 382, 383]),
            (39, [116, 379, 380, 381, 383]),
            (40, [117, 379, 380, 381, 383]),
            (64, [989, 995, 996, 999, 1137]),
            (128, [2299, 2305, 2583, 2584, 2585]),
            (192, [4002, 4008, 4009, 4010, 4011]),
            (256, [4807, 4813, 4819, 4821, 4822]),
            (320, [5506, 5512, 5513, 5516, 5767]),
            (384, [6063, 6069, 6070, 6073, 6337]),
            (448, [6508, 6514, 6518, 6519, 6656]),
            (512, [6804, 6810, 6839, 6840, 7180]),
            (576, [7247, 7253, 7274, 7275, 7874]),
            (640, [8471, 8477, 8546, 8547, 8553]),
            (704, [8953, 8959, 8960, 8961, 8962]),
            (768, [9222, 9228, 9361, 9362, 9363]),
            (832, [9544, 9550, 9763, 9764, 9768]),
            (896, [10220, 10226, 10227, 10228, 10238]),
        ],
        store_forwards: 1,
        load_partial_stalls: 1,
        lsq_rest_exceptions: 4,
        branch_mispredicts: 45,
        stalls: [0, 0, 1116, 4333, 466],
        cpi: [575, 765, 328, 0, 0, 1, 137, 978, 7043, 466, 0],
    };
    check(Mode::Secure, &golden);
}

#[test]
fn debug_mode_stage_timestamps_are_pinned() {
    let golden = Golden {
        digest: 0x93ca_ad69_918c_2600,
        cycles: 13_401,
        rows: &[
            (0, [112, 118, 119, 120, 261]),
            (33, [116, 122, 460, 462, 463]),
            (34, [116, 122, 462, 574, 575]),
            (35, [116, 122, 123, 124, 575]),
            (36, [116, 122, 461, 463, 575]),
            (37, [116, 401, 402, 403, 715]),
            (38, [116, 122, 123, 404, 715]),
            (39, [116, 403, 404, 405, 718]),
            (40, [117, 405, 406, 407, 720]),
            (64, [1209, 1215, 1216, 1219, 1357]),
            (128, [2519, 2525, 2964, 2965, 3036]),
            (192, [5084, 5090, 5091, 5092, 5093]),
            (256, [6291, 6297, 6307, 6309, 6446]),
            (320, [7277, 7283, 7284, 7287, 7542]),
            (384, [8048, 8054, 8055, 8058, 8309]),
            (448, [8478, 8484, 8558, 8559, 8979]),
            (512, [9199, 9205, 9234, 9235, 9633]),
            (576, [9697, 9703, 9724, 9725, 10426]),
            (640, [11089, 11095, 11233, 11234, 11316]),
            (704, [11714, 11720, 11721, 11722, 11723]),
            (768, [12053, 12059, 12194, 12195, 12408]),
            (832, [12565, 12571, 12830, 12831, 12839]),
            (896, [13288, 13294, 13295, 13296, 13375]),
        ],
        store_forwards: 1,
        load_partial_stalls: 1,
        lsq_rest_exceptions: 4,
        branch_mispredicts: 45,
        stalls: [0, 0, 1278, 5418, 7914],
        cpi: [229, 449, 186, 0, 0, 0, 0, 443, 4180, 7914, 0],
    };
    check(Mode::Debug, &golden);
}

/// A stream that fills the IQ and the ROB: a dependent divide chain,
/// ALU ops waiting on it, and independent loads, stores and ALU ops that
/// complete early but cannot commit past the chain.
fn pressure_stream() -> Vec<DynInst> {
    let mut rng = Lcg(0xd1f);
    (0..2_000u64)
        .map(|i| {
            let pc = 0x1_0000 + (i % 64) * 4;
            let addr = 0x2_0000 + (rng.next() % 512) * 8;
            match i % 8 {
                0 => {
                    DynInst::alu(pc, Some(Reg::A0), [Some(Reg::A0), None]).with_kind(OpKind::IntDiv)
                }
                1 => DynInst::alu(pc, Some(Reg::A1), [Some(Reg::A0), None]),
                2 | 5 => DynInst::load(pc, Some(reg(rng.next())), None, addr, 8),
                3 => DynInst::store(pc, Some(Reg::A2), None, addr, 8),
                _ => DynInst::alu(pc, Some(reg(rng.next())), [None, None]),
            }
        })
        .collect()
}

/// Replays [`pressure_stream`] in `mode`.
fn replay_pressure(mode: Mode) -> CoreStats {
    let mut p = Pipeline::new(
        CoreConfig::isca2018(),
        Hierarchy::new(MemConfig::isca2018()),
        mode,
    );
    let mem = GuestMemory::new();
    let token = Token::generate(TokenWidth::B64, &mut StdRng::seed_from_u64(1));
    for d in &pressure_stream() {
        p.process(d, &mem, &token);
    }
    p.finish()
}

#[test]
fn rob_and_iq_pressure_stalls_are_pinned() {
    for (mode, cycles, stalls, cpi) in [
        (
            Mode::Secure,
            6_470,
            [5_363_719, 448_638, 122, 562, 6],
            [103, 110, 0, 78, 4_119, 1, 0, 301, 1_752, 6, 0],
        ),
        (
            Mode::Debug,
            6_829,
            [5_954_890, 460_914, 193, 562, 2_214],
            [73, 110, 0, 16, 3_424, 0, 0, 111, 881, 2_214, 0],
        ),
    ] {
        let s = replay_pressure(mode);
        assert_eq!(s.cycles, cycles, "{mode:?}: cycles");
        assert_eq!(
            [
                s.rob_stall_cycles,
                s.iq_stall_cycles,
                s.lsq_stall_cycles,
                s.fetch_stall_cycles,
                s.rob_blocked_store_cycles,
            ],
            stalls,
            "{mode:?}: rob, iq, lsq, fetch stall and ROB-blocked-by-store cycles"
        );
        assert_eq!(
            CpiComponent::ALL.map(|c| s.cpi.get(c)),
            cpi,
            "{mode:?}: CPI stack"
        );
    }
}
