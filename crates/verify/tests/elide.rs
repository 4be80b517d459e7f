//! Integration: the static check-elision pass over hand-built programs
//! and the real corpus.
//!
//! Soundness here is machine-checked from two directions: attacks (which
//! carry Error+ findings) must always get an *empty* map, and workload
//! coverage must come exclusively from accesses the gates can actually
//! justify. The end-to-end differential (emulator behaviour identical
//! with elision on and off) lives in the repo-level test suite; these
//! tests pin the static semantics.

use rest_core::ElideClass;
use rest_core::TokenWidth;
use rest_isa::{EcallNum, MemSize, Program, ProgramBuilder, Reg};
use rest_runtime::StackScheme;
use rest_verify::elide::{elide_program, ElideScheme};
use rest_verify::{verify_program, Severity};
use rest_workloads::{Scale, Workload, WorkloadParams, GOBMK_INPUTS};

fn rows() -> Vec<(String, Program)> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let seeds: Vec<(String, u64)> = if w == Workload::Gobmk {
            GOBMK_INPUTS
                .iter()
                .map(|&(n, s)| (n.to_string(), s))
                .collect()
        } else {
            vec![(w.name().to_string(), 0xC0FFEE)]
        };
        for (name, seed) in seeds {
            let params = WorkloadParams {
                scale: Scale::Test,
                stack_scheme: StackScheme::Rest,
                token_width: TokenWidth::B64,
                seed,
            };
            rows.push((name, w.build(&params)));
        }
    }
    rows
}

#[test]
fn workload_rows_elide_a_substantial_fraction_of_checks() {
    let mut hits = 0;
    for (name, program) in rows() {
        let report = elide_program(&program, ElideScheme::Rest);
        assert!(
            report.preconditions_ok,
            "workload '{name}' lints clean, so elision preconditions must hold"
        );
        let pct = report.elide_pct();
        println!(
            "{name}: {}/{} elided ({pct:.1}%), {} must-safe, {} redundant",
            report.map.len(),
            report.access_pcs,
            report.must_be_safe,
            report.redundant
        );
        if pct >= 20.0 {
            hits += 1;
        }
    }
    assert!(
        hits >= 4,
        "at least 4 of 16 rows must elide >= 20% of checks, got {hits}"
    );
}

#[test]
fn attack_programs_with_errors_get_empty_maps() {
    use rest_attacks::Attack;
    for attack in Attack::ALL {
        let program = attack.build(StackScheme::Rest);
        let result = verify_program(&program);
        let has_error = result
            .findings
            .iter()
            .any(|f| f.severity >= Severity::Error);
        let report = elide_program(&program, ElideScheme::Rest);
        if has_error {
            assert!(
                !report.preconditions_ok && report.map.is_empty(),
                "attack '{}' has Error+ findings; its elision map must be empty",
                attack.name()
            );
        }
    }
}

/// A diamond whose false arm frees the chunk: the rejoin access may not
/// be `MustBeSafe` (the site is may-freed), and no check above the split
/// can make it `Redundant` across the free either (ecalls clear facts).
#[test]
fn diamond_with_free_on_one_arm_blocks_elision_at_the_join() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.mv(Reg::S0, Reg::A0);
    // Both arms and the join store through s0.
    let else_l = p.new_label();
    let join_l = p.new_label();
    p.beq(Reg::A1, Reg::ZERO, else_l);
    p.store(Reg::A1, Reg::S0, 0, MemSize::B8); // then-arm: in-bounds
    p.j(join_l);
    p.bind(else_l);
    p.mv(Reg::A0, Reg::S0);
    p.ecall(EcallNum::Free); // else-arm frees the chunk
    p.bind(join_l);
    p.store(Reg::A2, Reg::S0, 8, MemSize::B8); // UAF on the else path
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    if !report.preconditions_ok {
        // The verifier may flag the potential UAF as an error — which is
        // itself a sound reason to elide nothing.
        assert!(report.map.is_empty());
        return;
    }
    // The join store must keep its check: its site is may-freed.
    let join_pc = program
        .instructions()
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, rest_isa::Inst::Store { offset: 8, .. }))
        .map(|(idx, _)| Program::CODE_BASE + idx as u64 * rest_isa::PC_STEP)
        .next()
        .expect("join store exists");
    assert_eq!(report.map.class_at(join_pc), None);
}

/// Straight-line double access through an unproven base: the first check
/// dominates and covers the second, so the second is `Redundant`.
#[test]
fn dominating_identical_check_makes_the_second_access_redundant() {
    let mut p = ProgramBuilder::new();
    // An unknown base (read from memory) that no gate can prove safe.
    p.li(Reg::T0, 0x10_0000);
    p.load(Reg::S0, Reg::T0, 0, MemSize::B8);
    p.load(Reg::T1, Reg::S0, 0, MemSize::B8); // generator
    p.load(Reg::T2, Reg::S0, 0, MemSize::B8); // redundant
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    assert!(report.preconditions_ok);
    let pc = |idx: u64| Program::CODE_BASE + idx * rest_isa::PC_STEP;
    // The generator keeps its check; the repeat is covered by it.
    assert_eq!(report.map.class_at(pc(2)), None);
    assert_eq!(report.map.class_at(pc(3)), Some(ElideClass::Redundant));
}

/// A free between two identical checks kills availability: the second
/// access is not redundant (quarantine may have armed the bytes).
#[test]
fn an_intervening_ecall_kills_check_availability() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::T0, 0x10_0000);
    p.load(Reg::S0, Reg::T0, 0, MemSize::B8);
    p.load(Reg::T1, Reg::S0, 0, MemSize::B8);
    p.li(Reg::A0, 7);
    p.ecall(EcallNum::PutChar); // any ecall clears facts
    p.load(Reg::T2, Reg::S0, 0, MemSize::B8);
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    assert!(report.preconditions_ok);
    // `ecall(num)` emits `li a7, num` + `ecall`, so the second load sits
    // at instruction index 6.
    let pc = |idx: u64| Program::CODE_BASE + idx * rest_isa::PC_STEP;
    assert_eq!(report.map.class_at(pc(6)), None);
}

/// Redefining the base register between two checks kills availability.
#[test]
fn base_redefinition_kills_check_availability() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::T0, 0x10_0000);
    p.load(Reg::S0, Reg::T0, 0, MemSize::B8);
    p.load(Reg::T1, Reg::S0, 0, MemSize::B8);
    p.load(Reg::S0, Reg::T0, 0, MemSize::B8); // s0 redefined
    p.load(Reg::T2, Reg::S0, 0, MemSize::B8);
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    assert!(report.preconditions_ok);
    let pc = |idx: u64| Program::CODE_BASE + idx * rest_isa::PC_STEP;
    assert_eq!(report.map.class_at(pc(4)), None);
}

/// In-bounds accesses to a never-freed heap chunk are `MustBeSafe`; the
/// serialized report counts stay mutually consistent.
#[test]
fn in_bounds_heap_accesses_are_must_be_safe() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.li(Reg::T1, 42);
    p.store(Reg::T1, Reg::A0, 0, MemSize::B8);
    p.store(Reg::T1, Reg::A0, 56, MemSize::B8);
    p.load(Reg::T2, Reg::A0, 0, MemSize::B8);
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    assert!(report.preconditions_ok);
    // `ecall(num)` emits two instructions, so the accesses sit at 4..=6.
    let pc = |idx: u64| Program::CODE_BASE + idx * rest_isa::PC_STEP;
    assert_eq!(report.map.class_at(pc(4)), Some(ElideClass::MustBeSafe));
    assert_eq!(report.map.class_at(pc(5)), Some(ElideClass::MustBeSafe));
    assert_eq!(report.map.class_at(pc(6)), Some(ElideClass::MustBeSafe));
    assert_eq!(report.must_be_safe + report.redundant, report.map.len());
    assert_eq!(report.access_pcs, report.map.len() + report.may_fault);
    // The JSON artifact round-trips through the schema validator.
    let doc = report.to_json("unit");
    rest_obs::elide::validate_elide(&doc).expect("artifact validates");
}

/// An out-of-bounds constant offset is never `MustBeSafe` (it would
/// land in the redzone), even though the chunk is live.
#[test]
fn out_of_bounds_offsets_keep_their_checks() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::A0, 64);
    p.ecall(EcallNum::Malloc);
    p.li(Reg::T1, 42);
    p.store(Reg::T1, Reg::A0, 64, MemSize::B8); // one past the end
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    let program = p.build();
    let report = elide_program(&program, ElideScheme::Rest);
    let pc = Program::CODE_BASE + 4 * rest_isa::PC_STEP;
    assert_eq!(report.map.class_at(pc), None);
}

/// Under the ASan scheme stack accesses are never statically elided:
/// stack redzone pokes are shadow writes the arm model cannot see.
/// Covers both the absolute (main-frame) and the sp-relative (callee)
/// stack gates.
#[test]
fn asan_scheme_never_elides_stack_accesses() {
    let mut p = ProgramBuilder::new();
    p.li(Reg::SP, 0x7fff_f000); // main sets up the stack pointer
    p.li(Reg::T1, 1);
    p.store(Reg::T1, Reg::SP, -8, MemSize::B8); // idx 2: absolute frame
    let f = p.new_label();
    p.call(f);
    p.li(Reg::A0, 0);
    p.ecall(EcallNum::Exit);
    p.bind(f);
    p.store(Reg::T1, Reg::SP, -16, MemSize::B8); // idx 7: sp-relative
    p.ret();
    let program = p.build();
    let rest = elide_program(&program, ElideScheme::Rest);
    let asan = elide_program(&program, ElideScheme::Asan);
    assert!(rest.preconditions_ok && asan.preconditions_ok);
    let pc = |idx: u64| Program::CODE_BASE + idx * rest_isa::PC_STEP;
    assert_eq!(rest.map.class_at(pc(2)), Some(ElideClass::MustBeSafe));
    assert_eq!(rest.map.class_at(pc(7)), Some(ElideClass::MustBeSafe));
    assert_eq!(asan.map.class_at(pc(2)), None);
    assert_eq!(asan.map.class_at(pc(7)), None);
}
