//! Minimized regression corpus: reproducers emitted by the fuzz
//! campaign (`fuzz --emit-regress`), replayed through the same
//! [`Expectation::admits`] judging as the ten curated attacks. The
//! defense-matrix and elision campaigns load this corpus
//! automatically, so every minimized fuzzer find becomes a permanent
//! regression test the moment its files land in the tree.
//!
//! On-disk format — one case is a pair of files under
//! `tests/regress/` at the repository root:
//!
//! * `<name>.s` — the minimized guest assembly,
//! * `<name>.trace` — sidecar with `#` comment lines, `op <line>`
//!   rows documenting the originating allocator trace, and
//!   `expect <scheme-label> <expectation-name>` rows recording the
//!   empirical per-scheme verdict at emission time.
//!
//! The expectations are *measured*, not guessed: the emitter runs the
//! reproducer under every defense scheme and writes down what
//! happened, so a later behaviour change in any layer (allocator,
//! emulator, protection backend) flips `admits` and fails the
//! campaign.

use std::fs;
use std::path::{Path, PathBuf};

use rest_runtime::RtConfig;

use crate::{AttackOutcome, Expectation};

/// One minimized reproducer loaded from the corpus.
#[derive(Debug, Clone)]
pub struct RegressCase {
    /// File stem, e.g. `oob-write--agree-detected`.
    pub name: String,
    /// Guest assembly source (contents of `<name>.s`).
    pub asm: String,
    /// Originating allocator-trace lines (documentation only; the
    /// assembly is the replayed artifact).
    pub ops: Vec<String>,
    /// Per-scheme expectations in sidecar order.
    pub expectations: Vec<(String, Expectation)>,
}

impl RegressCase {
    /// Expectation recorded for a scheme label; `NotApplicable` when
    /// the sidecar has no row for it (new schemes added after the case
    /// was emitted are not retroactively constrained).
    pub fn expectation(&self, scheme: &str) -> Expectation {
        self.expectations
            .iter()
            .find(|(s, _)| s == scheme)
            .map(|&(_, e)| e)
            .unwrap_or(Expectation::NotApplicable)
    }
}

/// `tests/regress/` at the repository root, resolved from this crate's
/// manifest so it works from any working directory.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regress")
}

/// Loads every `<name>.s` + `<name>.trace` pair in `dir`, sorted by
/// name. A `.s` without its sidecar (or vice versa), an unknown
/// sidecar line, or an unknown expectation name is an error — a
/// half-committed reproducer must fail loudly, not silently shrink
/// the corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<RegressCase>, String> {
    let mut stems: Vec<String> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("s") => {
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| format!("{}: non-utf8 name", path.display()))?;
                stems.push(stem.to_string());
            }
            Some("trace") => {
                let sibling = path.with_extension("s");
                if !sibling.is_file() {
                    return Err(format!(
                        "{}: sidecar without its .s program",
                        path.display()
                    ));
                }
            }
            _ => {}
        }
    }
    stems.sort();
    let mut cases = Vec::with_capacity(stems.len());
    for stem in stems {
        cases.push(load_case(dir, &stem)?);
    }
    Ok(cases)
}

fn load_case(dir: &Path, stem: &str) -> Result<RegressCase, String> {
    let asm_path = dir.join(format!("{stem}.s"));
    let trace_path = dir.join(format!("{stem}.trace"));
    let asm = fs::read_to_string(&asm_path).map_err(|e| format!("{}: {e}", asm_path.display()))?;
    let trace =
        fs::read_to_string(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let mut ops = Vec::new();
    let mut expectations: Vec<(String, Expectation)> = Vec::new();
    for raw in trace.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(op) = line.strip_prefix("op ") {
            ops.push(op.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("expect ") {
            let mut it = rest.split_whitespace();
            let scheme = it
                .next()
                .ok_or_else(|| format!("{stem}.trace: bare expect line"))?;
            let name = it
                .next()
                .ok_or_else(|| format!("{stem}.trace: expect {scheme} has no verdict"))?;
            let expect = Expectation::from_name(name)
                .ok_or_else(|| format!("{stem}.trace: unknown expectation {name:?}"))?;
            if it.next().is_some() {
                return Err(format!(
                    "{stem}.trace: trailing tokens on expect line {line:?}"
                ));
            }
            if expectations.iter().any(|(s, _)| s == scheme) {
                return Err(format!("{stem}.trace: duplicate expect row for {scheme}"));
            }
            expectations.push((scheme.to_string(), expect));
        } else {
            return Err(format!("{stem}.trace: unrecognised line {line:?}"));
        }
    }
    if expectations.is_empty() {
        return Err(format!("{stem}.trace: no expect rows"));
    }
    Ok(RegressCase {
        name: stem.to_string(),
        asm,
        ops,
        expectations,
    })
}

/// The committed corpus. `Ok(vec![])` when `tests/regress/` does not
/// exist yet (pre-seed trees); any malformed file is an `Err`.
pub fn corpus() -> Result<Vec<RegressCase>, String> {
    let dir = corpus_dir();
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    load_dir(&dir)
}

/// Functionally replays a case under `rt` and derives an
/// [`AttackOutcome`] exactly the way [`crate::Attack::run`] does, so
/// [`Expectation::admits`] judges both with one predicate.
pub fn replay(case: &RegressCase, rt: RtConfig) -> Result<AttackOutcome, String> {
    let program = rest_isa::parse_asm(&case.asm).map_err(|e| format!("{}: {e:?}", case.name))?;
    crate::run_and_judge(program, rt).ok_or_else(|| format!("{}: run did not stop", case.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_names_round_trip() {
        for e in [
            Expectation::Detected,
            Expectation::Undetected,
            Expectation::FalseNegative,
            Expectation::Prevented,
            Expectation::AliasingProne,
            Expectation::NotApplicable,
        ] {
            assert_eq!(Expectation::from_name(e.name()), Some(e));
        }
        assert_eq!(Expectation::from_name("bogus"), None);
    }

    #[test]
    fn sidecar_parse_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("rest-regress-parse-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("case.s"), "halt\n").unwrap();
        fs::write(
            dir.join("case.trace"),
            "# header\nop malloc slot=3 size=8\nexpect plain undetected\n",
        )
        .unwrap();
        let cases = load_dir(&dir).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].ops, ["malloc slot=3 size=8"]);
        assert_eq!(cases[0].expectation("plain"), Expectation::Undetected);
        assert_eq!(
            cases[0].expectation("never-heard-of-it"),
            Expectation::NotApplicable
        );

        fs::write(dir.join("case.trace"), "expect plain what-is-this\n").unwrap();
        assert!(load_dir(&dir).unwrap_err().contains("unknown expectation"));
        fs::write(dir.join("case.trace"), "verdicts go here\n").unwrap();
        assert!(load_dir(&dir).unwrap_err().contains("unrecognised line"));
        fs::write(dir.join("case.trace"), "# only comments\n").unwrap();
        assert!(load_dir(&dir).unwrap_err().contains("no expect rows"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_corpus_loads_parses_and_replays_within_spec() {
        let cases = corpus().expect("corpus must load");
        assert!(
            !cases.is_empty(),
            "tests/regress/ must hold at least one minimized reproducer"
        );
        for case in &cases {
            rest_isa::parse_asm(&case.asm).unwrap_or_else(|e| panic!("{}: {e:?}", case.name));
            assert!(
                !case.expectations.is_empty(),
                "{}: empty expectations",
                case.name
            );
            for (scheme, expect) in &case.expectations {
                let rt = RtConfig::from_label(scheme)
                    .unwrap_or_else(|| panic!("{}: unknown scheme {scheme}", case.name));
                let out = replay(case, rt).unwrap();
                assert!(
                    expect.admits(&out),
                    "{} under {scheme}: expected {} but got \
                     detected={} delayed={} leaked={} stop={:?}",
                    case.name,
                    expect.name(),
                    out.detected,
                    out.delayed,
                    out.leaked_secret,
                    out.stop
                );
            }
        }
    }
}
