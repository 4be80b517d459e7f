//! Pins restlint's complete output on the fuzz campaign's case stream:
//! every finding (pass, severity, PC and message) and the
//! `VerifyResult` counts for the first 500 cases of the default seed.
//! `fuzz.json` records only finding counts, so a changed message or a
//! reordered finding would otherwise go unnoticed. A deliberate change
//! to the analysis updates the digest here on purpose.

use rest_fuzz::{lower, CaseStream};
use rest_verify::verify_program;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
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

#[test]
fn restlint_findings_on_the_default_stream_are_pinned() {
    // The campaign's default fuzz seed.
    let mut stream = CaseStream::new(0xF0CC_5EED);
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let mut findings = 0;
    for _ in 0..500 {
        let case = stream.next_case();
        let r = verify_program(&lower(&case));
        d.u64(case.index);
        for n in [r.insts, r.blocks, r.functions, r.sites, r.findings.len()] {
            d.u64(n as u64);
        }
        for f in &r.findings {
            d.str(f.pass);
            d.str(f.severity.name());
            d.u64(f.pc);
            d.str(&f.message);
        }
        findings += r.findings.len();
    }
    assert_eq!(
        (findings, format!("{:016x}", d.0)),
        (598, "15840399a052b132".to_string()),
        "restlint output on the fuzz stream moved (finding count, digest)"
    );
}
