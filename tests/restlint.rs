//! Integration: the static ARM/DISARM verifier over the whole in-tree
//! corpus, end-to-end through the public API — every workload generator
//! must lint clean, every attack program must be flagged, and the
//! paper's §V detect/miss split must show up as must-trap verdicts that
//! the functional emulator confirms.

use rest::cpu::{Emulator, SimConfig, StopReason};
use rest::prelude::*;
use rest::verify::verify_program;
use rest::workloads::GOBMK_INPUTS;

/// Every figure row, built exactly as the benchmark harness builds it.
fn workload_rows() -> Vec<(String, Program)> {
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
fn every_workload_row_lints_clean() {
    let rows = workload_rows();
    assert_eq!(rows.len(), 16, "12 benchmarks, gobmk expanded to 5 inputs");
    for (name, program) in rows {
        let result = verify_program(&program);
        assert!(
            result.findings.is_empty(),
            "workload '{name}' must lint clean, got: {:?}",
            result.findings
        );
    }
}

#[test]
fn every_attack_is_flagged() {
    for attack in Attack::ALL {
        let result = verify_program(&attack.build(StackScheme::Rest));
        assert!(
            !result.findings.is_empty(),
            "attack '{}' produced no findings",
            attack.name()
        );
    }
}

/// The attacks REST detects at runtime are exactly the ones the static
/// verifier can prove will trap; the paper's documented misses
/// (padding-gap overread, uninitialised-data leak, redzone jumping)
/// yield warnings but no must-trap claim.
#[test]
fn must_trap_verdicts_match_the_papers_detect_miss_split() {
    let detected = [
        "heartbleed-oob-read",
        "heap-overflow-write",
        "stack-overflow-write",
        "use-after-free",
        "double-free",
        "brute-force-disarm",
        "unchecked-library-overflow",
    ];
    let missed = [
        "padding-gap-overread",
        "uninit-data-leak",
        "jump-over-redzone",
    ];
    for attack in Attack::ALL {
        let result = verify_program(&attack.build(StackScheme::Rest));
        let name = attack.name();
        if detected.contains(&name) {
            assert!(
                result.has_must_trap(),
                "attack '{name}' should have a must-trap verdict, got: {:?}",
                result.findings
            );
        } else {
            assert!(missed.contains(&name), "attack '{name}' not classified");
            assert!(
                !result.has_must_trap(),
                "attack '{name}' is a documented REST miss; a must-trap \
                 verdict would be unsound: {:?}",
                result.findings
            );
        }
    }
}

/// Differential soundness: every must-trap verdict reproduces as a
/// runtime violation on the functional emulator under the full-REST
/// configuration.
#[test]
fn must_trap_verdicts_reproduce_on_the_emulator() {
    let cfg = SimConfig::isca2018(RtConfig::rest(Mode::Secure, true));
    for attack in Attack::ALL {
        let program = attack.build(StackScheme::Rest);
        let result = verify_program(&program);
        if !result.has_must_trap() {
            continue;
        }
        let mut emu = Emulator::new(program, &cfg);
        let stop = emu.run_functional().cloned();
        assert!(
            matches!(stop, Some(StopReason::Violation(_))),
            "attack '{}' has a must-trap verdict but the emulator \
             stopped with {stop:?}",
            attack.name()
        );
    }
}
