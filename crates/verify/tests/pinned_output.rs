//! Pins restlint's complete output over the in-tree corpus: every
//! finding (pass, severity, PC and message), the `VerifyResult` counts,
//! and the elision maps under both schemes. The committed artifacts
//! record only counts and per-PC classes, so a changed message or a
//! reordered finding would otherwise go unnoticed. A deliberate change
//! to the analysis updates the digest here on purpose.

use rest_attacks::Attack;
use rest_core::TokenWidth;
use rest_isa::Program;
use rest_runtime::StackScheme;
use rest_verify::elide::{elide_program, ElideScheme};
use rest_verify::verify_program;
use rest_workloads::{Scale, Workload, WorkloadParams, GOBMK_INPUTS};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The 16 workload rows (gobmk expanded to its five inputs) at test
/// scale, then the attack programs.
fn corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
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
            out.push((name, w.build(&params)));
        }
    }
    for a in Attack::ALL {
        out.push((a.name().to_string(), a.build(StackScheme::Rest)));
    }
    out
}

#[test]
fn findings_and_elision_maps_are_pinned() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 16 + Attack::ALL.len());
    let mut lint = Fnv::new();
    let mut elide = Fnv::new();
    for (name, program) in &corpus {
        let r = verify_program(program);
        lint.str(name);
        for n in [r.insts, r.blocks, r.functions, r.sites, r.findings.len()] {
            lint.u64(n as u64);
        }
        for f in &r.findings {
            lint.str(f.pass);
            lint.str(f.severity.name());
            lint.u64(f.pc);
            lint.str(&f.message);
        }
        for scheme in [ElideScheme::Rest, ElideScheme::Asan] {
            let e = elide_program(program, scheme);
            elide.str(name);
            elide.str(scheme.name());
            elide.u64(u64::from(e.preconditions_ok));
            for n in [
                e.access_pcs,
                e.must_be_safe,
                e.redundant,
                e.may_fault,
                e.blocking_findings,
            ] {
                elide.u64(n as u64);
            }
            for (pc, class) in e.map.iter() {
                elide.u64(pc);
                elide.str(class.name());
            }
        }
    }
    assert_eq!(
        (format!("{:016x}", lint.0), format!("{:016x}", elide.0)),
        (
            "c67ee201d754b615".to_string(),
            "64403d44690347be".to_string()
        ),
        "restlint output over the corpus moved (lint digest, elision digest)"
    );
}
