//! Adversarial-corpus fuzz campaign (the `fuzz` experiment of `regen`).
//!
//! Generates a seeded stream of randomized-but-well-formed allocator
//! traces with injected bugs of known ground truth ([`rest_fuzz`]) and
//! runs every case through the tri-oracle differential harness: the
//! static verifier's must-trap verdict, the functional emulator at all
//! three execution tiers, and the cycle-level timing path. Each case
//! classifies into a [`Class`]; the campaign runs **rounds** of
//! `ROUND_SIZE` programs until two consecutive rounds surface no new
//! `truth/class` signature (and at least `MIN_PROGRAMS` ran), then
//! minimizes one exemplar per signature to a 1-minimal reproducer.
//!
//! The campaign is a pure function of its scale: the seed is
//! [`BenchCli::DEFAULT_FUZZ_SEED`] and every round runs in memory. It
//! returns a `rest-fuzz/v1` JSON document (`fuzz.json`) and a signature
//! table (`fuzz.txt`), byte-identical at any `--jobs` level. Any
//! case whose class is not *explained* (cross-oracle agreement or a
//! documented §V-C known miss) fails the run (exit status 1) — the hard
//! zero-unexplained gate CI enforces.
//!
//! With `--emit-regress DIR`, every bug signature's minimized exemplar
//! is written as an assembly reproducer (`<slug>.s`) plus an alloc-trace
//! sidecar (`<slug>.trace`) carrying per-scheme `expect` lines computed
//! empirically on the pipeline — the regression-corpus format the
//! defense and elision campaigns replay.

use std::collections::{BTreeMap, BTreeSet};

use rest_attacks::regress::RegressCase;
use rest_fuzz::{
    lower, minimize, run_case, BugKind, Case, CaseStream, Class, GroundTruth, BUG_SLOT,
};
use rest_obs::Json;
use rest_workloads::Scale;

use crate::cli::{BenchCli, Harness};
use crate::engine::SimJob;
use crate::sink::Artifact;
use crate::table::Table;

/// Campaign document schema identifier.
pub const SCHEMA: &str = "rest-fuzz/v1";

/// Programs per round.
const ROUND_SIZE: usize = 2500;

/// Programs the campaign must generate before it may stop dry.
const MIN_PROGRAMS: usize = 10_000;

/// Consecutive signature-free rounds required to stop.
const DRY_ROUNDS: usize = 2;

/// Hard round cap: a backstop against a pathological stream that keeps
/// minting signatures, far above what the finite `truth/class` space
/// can reach.
const MAX_ROUNDS: usize = 64;

/// The `truth/class` disagreement signature of a case.
fn signature(truth: GroundTruth, class: Class) -> String {
    format!("{}/{}", truth.name(), class.name())
}

/// File-name slug for a signature (`oob-write/agree-detected` →
/// `oob-write--agree-detected`).
fn sig_slug(sig: &str) -> String {
    sig.replace('/', "--")
}

/// Empirical per-scheme expectation of a minimized reproducer: the
/// pipeline runs the program under each defense scheme and the verdict
/// maps onto the [`rest_attacks::Expectation`] vocabulary the regression
/// replay judges with. Generated programs plant no secret, so
/// `detected`/`undetected` are exact; a REST miss on a ground-truth
/// known-miss case is the documented §V-C `false-negative`.
fn scheme_expectations(
    scale: Scale,
    case: &Case,
    asm: &str,
    slug: &str,
) -> Result<Vec<(String, String)>, String> {
    let known_miss = matches!(case.truth, GroundTruth::Miss(_));
    let mut expectations = Vec::new();
    // No sidecar yet: its `expect` rows are what this loop measures.
    let regress = std::sync::Arc::new(RegressCase {
        name: slug.to_string(),
        asm: asm.to_string(),
        ops: Vec::new(),
        expectations: Vec::new(),
    });
    for (label, rt) in crate::defense::scheme_configs() {
        let result = SimJob::for_regress(regress.clone(), label, rt, scale)
            .execute()
            .map_err(|e| format!("{slug} failed under {label}: {}", e.detail))?;
        let out = crate::defense::outcome_of(&result);
        let expect = if out.detected {
            "detected"
        } else if known_miss && label == "rest-secure-full" {
            "false-negative"
        } else {
            "undetected"
        };
        expectations.push((label.to_string(), expect.to_string()));
    }
    Ok(expectations)
}

/// Writes one minimized reproducer as `<slug>.s` + `<slug>.trace` into
/// `dir`, with provenance headers and empirical `expect` lines.
fn emit_regress(h: &Harness, dir: &std::path::Path, sig: &str, case: &Case) -> Result<(), String> {
    let slug = sig_slug(sig);
    let header = format!(
        "# rest-fuzz minimized reproducer\n\
         # seed: {:#x}  case: {}\n\
         # signature: {sig}\n",
        BenchCli::DEFAULT_FUZZ_SEED,
        case.index
    );
    let asm = format!("{header}{}", lower(case).to_asm());
    let mut trace = header.to_string();
    for op in &case.ops {
        trace.push_str(&format!("op {}\n", op.line()));
    }
    for (scheme, expect) in scheme_expectations(h.scale, case, &asm, &slug)? {
        trace.push_str(&format!("expect {scheme} {expect}\n"));
    }
    crate::write_text_file(&dir.join(format!("{slug}.s")), &asm)?;
    crate::write_text_file(&dir.join(format!("{slug}.trace")), &trace)
}

/// Runs the full campaign: generate + tri-oracle rounds until dry,
/// then minimize one exemplar per signature, and return `fuzz.json`
/// and `fuzz.txt`. Any case classified as unexplained fails the
/// run once the document is written.
pub fn run_campaign(h: &mut Harness) -> Result<Vec<Artifact>, String> {
    let rt = rest_fuzz::campaign_rt();
    let mut stream = CaseStream::new(BenchCli::DEFAULT_FUZZ_SEED);
    let mut cases: Vec<Case> = Vec::new();
    let mut classes_of: Vec<Class> = Vec::new();
    let mut seen_sigs: BTreeSet<String> = BTreeSet::new();
    let mut round_docs: Vec<Json> = Vec::new();
    let mut dry = 0usize;
    let mut ran_dry = false;

    for round in 1..=MAX_ROUNDS {
        let start = cases.len();
        cases.extend((0..ROUND_SIZE).map(|_| stream.next_case()));
        let round_cases = &cases[start..];
        let records = h.run_tasks(round_cases.len(), |i| run_case(&round_cases[i], &rt));

        let mut new_sigs: Vec<Json> = Vec::new();
        for (case, rec) in round_cases.iter().zip(&records) {
            let sig = signature(case.truth, rec.class);
            if seen_sigs.insert(sig.clone()) {
                new_sigs.push(Json::Str(sig));
            }
        }
        classes_of.extend(records.iter().map(|rec| rec.class));
        dry = if new_sigs.is_empty() { dry + 1 } else { 0 };
        eprintln!(
            "# fuzz: round {round}: {} program(s), {} new signature(s), dry {dry}/{DRY_ROUNDS}",
            round_cases.len(),
            new_sigs.len()
        );
        round_docs.push(Json::obj(vec![
            ("round", Json::UInt(round as u64)),
            ("programs", Json::UInt(round_cases.len() as u64)),
            ("new_signatures", Json::Arr(new_sigs)),
        ]));
        if dry >= DRY_ROUNDS && cases.len() >= MIN_PROGRAMS {
            ran_dry = true;
            break;
        }
    }

    // Aggregate the classified cases: per-class counts, per-signature
    // stats, and the unexplained set the gate fires on.
    struct SigStat {
        count: u64,
        first_case: u64,
        truth: GroundTruth,
        class: Class,
    }
    let mut classes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut sigs: BTreeMap<String, SigStat> = BTreeMap::new();
    let mut unexplained_cases: Vec<Json> = Vec::new();
    let mut unexplained_total = 0u64;
    for (case, &class) in cases.iter().zip(&classes_of) {
        *classes.entry(class.name()).or_insert(0) += 1;
        sigs.entry(signature(case.truth, class))
            .and_modify(|s| s.count += 1)
            .or_insert(SigStat {
                count: 1,
                first_case: case.index,
                truth: case.truth,
                class,
            });
        if !class.is_explained() {
            unexplained_total += 1;
            if unexplained_cases.len() < 50 {
                unexplained_cases.push(Json::UInt(case.index));
            }
        }
    }

    // Minimize one exemplar per signature: the earliest case, shrunk to
    // a 1-minimal reproducer of the same class.
    let mut table = Table::named(["signature", "count", "first case", "explained", "min ops"]);
    let mut sig_docs: Vec<(String, Json)> = Vec::new();
    for (sig, stat) in &sigs {
        let explained = stat.class.is_explained();
        let minimized = minimize(&cases[stat.first_case as usize], &rt);
        table.row([
            sig.clone(),
            stat.count.to_string(),
            stat.first_case.to_string(),
            (if explained { "yes" } else { "NO" }).to_string(),
            minimized.ops.len().to_string(),
        ]);
        if let Some(dir) = &h.cli.emit_regress {
            // Known-miss classes are runtime-vacuous (nothing traps or
            // must-traps), so the class-preserving minimizer deletes
            // every op; the committed reproducer falls back to the
            // injected bug ops. Clean signatures have no bug ops and
            // emit nothing.
            let exemplar = if minimized.ops.is_empty() {
                let first = &cases[stat.first_case as usize];
                Case {
                    index: first.index,
                    ops: first
                        .ops
                        .iter()
                        .filter(|op| op.slot() == BUG_SLOT)
                        .copied()
                        .collect(),
                    truth: first.truth,
                }
            } else {
                minimized.clone()
            };
            if !exemplar.ops.is_empty() {
                emit_regress(h, dir, sig, &exemplar)?;
            }
        }
        sig_docs.push((
            sig.clone(),
            Json::obj(vec![
                ("count", Json::UInt(stat.count)),
                ("first_case", Json::UInt(stat.first_case)),
                ("truth", Json::from(stat.truth.name())),
                ("class", Json::from(stat.class.name())),
                ("explained", Json::Bool(explained)),
                (
                    "minimized_ops",
                    Json::Arr(
                        minimized
                            .ops
                            .iter()
                            .map(|op| Json::Str(op.line()))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let text = format!(
        "{}{table}\nprograms: {}   signatures: {}   unexplained: {unexplained_total}\n",
        crate::machine_header(
            "fuzz — adversarial tri-oracle campaign (rest-secure-full)",
            h.scale
        ),
        cases.len(),
        sigs.len()
    );

    let mut sink = h.sink();
    sink.push("schema", Json::from(SCHEMA));
    sink.push("fuzz_seed", Json::UInt(BenchCli::DEFAULT_FUZZ_SEED));
    sink.push("round_size", Json::UInt(ROUND_SIZE as u64));
    sink.push("min_programs", Json::UInt(MIN_PROGRAMS as u64));
    sink.push("dry_rounds", Json::UInt(DRY_ROUNDS as u64));
    sink.push("mode", Json::from("rest-secure-full"));
    sink.push("programs", Json::UInt(cases.len() as u64));
    sink.push("ran_dry", Json::Bool(ran_dry));
    sink.push("rounds", Json::Arr(round_docs));
    sink.push(
        "classes",
        Json::Obj(
            classes
                .iter()
                .map(|(name, &n)| (name.to_string(), Json::UInt(n)))
                .collect(),
        ),
    );
    sink.push("signatures", Json::Obj(sig_docs));
    sink.push(
        "unexplained",
        Json::obj(vec![
            ("count", Json::UInt(unexplained_total)),
            ("cases", Json::Arr(unexplained_cases)),
        ]),
    );
    let artifacts = sink.artifacts(text)?;
    if unexplained_total > 0 {
        h.fail(format!(
            "{unexplained_total} unexplained disagreement(s) — every case must \
             cross-check across the oracles or land in the documented known-miss table"
        ));
    }
    Ok(artifacts)
}

/// The `rest-fuzz/v1` rules the campaign does not enforce while it
/// assembles the document (its own gate is zero unexplained cases):
///
/// * `ran-dry` — the campaign converged instead of hitting the round cap;
/// * `kinds` — every ground truth (clean and each [`BugKind`]) shows up;
/// * `count-sum` — the signature counts sum to `programs`;
/// * `minimized` — every `agree-detected` signature carries a non-empty
///   minimized reproducer.
pub fn validate(doc: &Json) -> Result<(), String> {
    use crate::sink::{ensure, flag};
    ensure(flag(doc, "ran_dry"), "ran-dry", || {
        format!("stopped at the {MAX_ROUNDS}-round cap")
    })?;
    let Some(Json::Obj(sigs)) = doc.get("signatures") else {
        return Err("missing or mistyped \"signatures\"".to_string());
    };
    let (mut truths, mut count) = (BTreeSet::new(), 0);
    for (sig, stat) in sigs {
        truths.insert(sig.split('/').next().unwrap_or_default());
        count += stat.req("count", Json::as_u64)?;
        let detected = stat.get("class") == Some(&Json::from("agree-detected"));
        let ops = stat.req("minimized_ops", Json::as_arr)?;
        ensure(!detected || !ops.is_empty(), "minimized", || {
            format!("{sig}: empty reproducer")
        })?;
    }
    let want: BTreeSet<_> = BugKind::ALL
        .iter()
        .map(|b| b.name())
        .chain(["clean"])
        .collect();
    ensure(truths == want, "kinds", || {
        format!("ground truths {truths:?}, expected {want:?}")
    })?;
    let programs = doc.req("programs", Json::as_u64)?;
    ensure(count == programs, "count-sum", || {
        format!("signature counts sum to {count}, programs {programs}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_and_slugs_are_stable() {
        let sig = signature(GroundTruth::Detect(BugKind::OobWrite), Class::AgreeDetected);
        assert_eq!(sig, "oob-write/agree-detected");
        assert_eq!(sig_slug(&sig), "oob-write--agree-detected");
    }
}
