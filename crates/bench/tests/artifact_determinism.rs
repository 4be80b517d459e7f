//! Checks over the committed `results/` documents.
//!
//! The byte-determinism contract: committed experiment documents must
//! be byte-identical at any `--jobs` level, so host-dependent
//! measurements (wall times, throughput rates, worker counts, per-job
//! host logs) may only live in `BENCH_`-prefixed files. The scan below
//! rejects any key that could only have come from the host clock or
//! scheduler.
//!
//! The validity contract: every committed document passes the same
//! [`rest_bench::sink::validate`] `regen` ran before writing it, and
//! the rules that span documents hold (see [`cross_check`]). Each rule
//! has a negative test that mutates a committed document.

use std::collections::BTreeSet;

use rest_bench::cli::BenchCli;
use rest_bench::regen::EXPERIMENTS;
use rest_bench::sink::validate;
use rest_obs::Json;
use rest_workloads::Scale;

/// Keys whose value depends on the host (clock, scheduler, core
/// count) and therefore must never appear in a deterministic
/// experiment document.
const FORBIDDEN_KEYS: [&str; 3] = ["effective_jobs", "speedup", "workers"];

/// Key suffixes that denote host-time or host-rate measurements.
const FORBIDDEN_SUFFIXES: [&str; 6] = ["wall_s", "start_s", "queue_s", "busy_s", "_ips", "_ms"];

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Recursively walks a document, reporting every forbidden key with
/// its path.
fn scan(doc: &Json, path: &str, violations: &mut Vec<String>) {
    match doc {
        Json::Obj(members) => {
            for (key, value) in members {
                let here = format!("{path}.{key}");
                if FORBIDDEN_KEYS.contains(&key.as_str())
                    || FORBIDDEN_SUFFIXES.iter().any(|s| key.ends_with(s))
                {
                    violations.push(here.clone());
                }
                scan(value, &here, violations);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                scan(item, &format!("{path}[{i}]"), violations);
            }
        }
        _ => {}
    }
}

/// Whether a committed results file is exempt from the byte-determinism
/// contract. Only files matching the exact `BENCH_*.json` shape qualify
/// — a stray `bench_foo.json` or `xBENCH_foo.json` is still scanned.
fn is_bench_file(name: &str) -> bool {
    name.starts_with("BENCH_") && name.ends_with(".json")
}

#[test]
fn experiment_documents_carry_no_host_dependent_keys() {
    let dir = results_dir();
    let mut scanned = 0;
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ directory is committed") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.ends_with(".json") || is_bench_file(&name) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
        scanned += 1;
        scan(&doc, &name, &mut violations);
    }
    assert!(scanned > 0, "no committed experiment documents found");
    assert!(
        violations.is_empty(),
        "host-dependent keys belong only in BENCH_ files:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn bench_files_are_the_only_home_for_host_measurements() {
    // The inverse direction (the negative test): every committed
    // `BENCH_` document really does carry host-dependent keys — if one
    // didn't, its measurements could silently migrate into an
    // experiment document without the scan above noticing, and the
    // exemption would be hiding nothing. This also pins the exemption
    // list itself: the one nondeterministic artefact the repository
    // commits must be present and exempt.
    let dir = results_dir();
    let mut bench_files = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry
            .unwrap()
            .path()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .to_string();
        if is_bench_file(&name) {
            bench_files.push(name);
        }
    }
    bench_files.sort();
    assert!(
        bench_files.iter().any(|n| n == "BENCH_baseline.json"),
        "results/BENCH_baseline.json must be committed (have {bench_files:?})"
    );
    for name in &bench_files {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
        let mut violations = Vec::new();
        scan(&doc, name, &mut violations);
        assert!(
            !violations.is_empty(),
            "{name} carries no host-dependent keys — it does not need the BENCH_ exemption"
        );
    }

    // Spot-check the specific keys the host document carries.
    let mut violations = Vec::new();
    let baseline =
        Json::parse(&std::fs::read_to_string(dir.join("BENCH_baseline.json")).unwrap()).unwrap();
    scan(&baseline, "BENCH_baseline.json", &mut violations);
    for key in [
        ".effective_jobs",
        ".workers",
        ".start_s",
        ".queue_s",
        ".busy_s",
    ] {
        assert!(
            violations.iter().any(|v| v.ends_with(key)),
            "the host document carries {key} keys"
        );
    }
}

fn committed(name: &str) -> Json {
    let text = std::fs::read_to_string(results_dir().join(name))
        .unwrap_or_else(|e| panic!("results/{name} must be committed: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"))
}

/// The `rest-secure-full` column of the defense matrix.
const REST: usize = 2;

fn regress_files() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regress");
    std::fs::read_dir(dir)
        .expect("tests/regress is committed")
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .collect()
}

/// The rules that span documents:
///
/// * `elision-detection` — every attack and regression case the
///   elision campaign re-ran is detected exactly when the defense
///   matrix's `rest-secure-full` cell detects it;
/// * `regress-corpus` — `tests/regress` holds one `.s`/`.trace` pair
///   per non-clean fuzz signature, and the defense matrix replays
///   exactly those cases.
fn cross_check(
    elision: &Json,
    defense: &Json,
    fuzz: &Json,
    files: &[String],
) -> Result<(), String> {
    let rows = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let text = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();
    let detected = |row: &Json| row.get("detected") == Some(&Json::Bool(true));
    for (section, key) in [("attacks", "attack"), ("regressions", "name")] {
        let elided: Vec<_> = rows(elision, section)
            .iter()
            .map(|r| (text(r, key), detected(r)))
            .collect();
        // Rule `cells-ok` pins the defense cells to `SCHEMES` order.
        let matrix: Vec<_> = rows(defense, section)
            .iter()
            .map(|r| (text(r, "name"), detected(&rows(r, "cells")[REST])))
            .collect();
        if elided != matrix {
            return Err(format!(
                "elision-detection: {section} under elision {elided:?}, defense matrix {matrix:?}"
            ));
        }
    }
    let stems = |suffix: &str| -> BTreeSet<String> {
        files
            .iter()
            .filter_map(|f| f.strip_suffix(suffix))
            .map(str::to_string)
            .collect()
    };
    let Some(Json::Obj(sigs)) = fuzz.get("signatures") else {
        return Err("regress-corpus: fuzz.json carries no signatures".to_string());
    };
    let found = sigs.iter().map(|(sig, _)| sig.replace('/', "--"));
    let replayed = rows(defense, "regressions")
        .iter()
        .map(|r| text(r, "name"))
        .collect();
    let corpus = [
        stems(".s"),
        stems(".trace"),
        found.filter(|s| !s.starts_with("clean--")).collect(),
        replayed,
    ];
    if corpus.iter().any(|set| *set != corpus[0]) {
        return Err(format!(
            "regress-corpus: reproducers, sidecars, fuzz signatures and defense replays \
             differ: {corpus:?}"
        ));
    }
    Ok(())
}

#[test]
fn every_committed_document_validates() {
    let mut names: Vec<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 10, "committed documents: {names:?}");
    for name in &names {
        validate(&committed(name)).unwrap_or_else(|e| panic!("results/{name}: {e}"));
    }
    let [elision, defense, fuzz] = ["elision.json", "defense.json", "fuzz.json"].map(committed);
    cross_check(&elision, &defense, &fuzz, &regress_files()).unwrap();
    // The committed campaign is the configuration the known-outcome
    // tables bind, so rule `known-outcomes` compares its cells.
    let faults = committed("faults.json");
    assert_eq!(
        faults.get("fault_seed").and_then(Json::as_u64),
        Some(BenchCli::DEFAULT_FAULT_SEED)
    );
    assert_eq!(faults.get("scale"), Some(&Json::from("test")));
    check_baseline(&committed("BENCH_baseline.json"));
}

/// Job cells of the matrices in a document (plain baselines included).
fn matrix_cells(doc: &Json) -> usize {
    let Json::Obj(members) = doc else { return 0 };
    members
        .iter()
        .filter_map(|(_, m)| m.get("columns").and(m.get("rows")?.as_arr()))
        .flatten()
        .map(|row| {
            row.get("cells")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len)
                + usize::from(row.get("plain").is_some())
        })
        .sum()
}

/// The perf baseline is the host document of a full `regen` run: every
/// experiment in table order, and one job record per submitted job —
/// for each paper figure and table exactly the cells of its committed
/// matrices, cache hits included.
fn check_baseline(baseline: &Json) {
    assert_eq!(baseline.get("experiment"), Some(&Json::from("regen")));
    let ran: Vec<&str> = baseline
        .get("experiments")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(ran, table);
    let labels: Vec<&str> = baseline
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|j| j.get("label").and_then(Json::as_str).unwrap())
        .collect();
    let jobs_of = |name: &str| {
        labels
            .iter()
            .filter(|l| l.starts_with(&format!("{name}: ")))
            .count()
    };
    assert_eq!(
        table.iter().map(|n| jobs_of(n)).sum::<usize>(),
        labels.len(),
        "every job is labelled with its experiment"
    );
    // The reference-scale experiments: the paper's figures and tables.
    for e in EXPERIMENTS.iter().filter(|e| e.scale == Scale::Ref) {
        let cells = matrix_cells(&committed(&format!("{}.json", e.name)));
        assert_eq!(
            jobs_of(e.name),
            cells,
            "{}: one job record per matrix cell",
            e.name
        );
    }
}

#[test]
fn results_hold_no_orphan_files() {
    // Every committed file is a `regen` artifact, the restlint report,
    // or a host document.
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(results_dir()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().to_string();
        let known = EXPERIMENTS
            .iter()
            .any(|e| e.artifacts.contains(&name.as_str()))
            || name == "lint.json"
            || is_bench_file(&name);
        if !known {
            orphans.push(name);
        }
    }
    assert!(
        orphans.is_empty(),
        "results/ files no producer writes: {orphans:?}"
    );
    // And every artifact is committed.
    for file in EXPERIMENTS.iter().flat_map(|e| e.artifacts) {
        assert!(
            results_dir().join(file).exists(),
            "results/{file} is not committed"
        );
    }
}

#[test]
fn every_text_table_of_simulated_numbers_names_its_scale() {
    // table1.txt renders the executable specification: nothing in it
    // was simulated.
    for e in EXPERIMENTS.iter().filter(|e| e.name != "table1") {
        let file = format!("{}.txt", e.name);
        assert!(
            e.artifacts.contains(&file.as_str()),
            "{} writes no {file}",
            e.name
        );
        let text = std::fs::read_to_string(results_dir().join(&file)).unwrap();
        let want = format!("# scale: {}", rest_bench::scale_name(e.scale));
        assert!(
            text.lines()
                .take_while(|l| l.starts_with('#'))
                .any(|l| l == want),
            "{file} lacks a `{want}` header line"
        );
    }
}

/// Applies space-separated `path=json` edits.
fn edit(doc: &mut Json, edits: &str) {
    for e in edits.split(' ') {
        let (path, value) = e.split_once('=').unwrap();
        *doc.path_mut(path).expect(path) = Json::parse(value).unwrap();
    }
}

#[test]
fn each_rule_rejects_a_mutated_committed_document() {
    #[rustfmt::skip]
    let cases = [
        ("fig7.json", "cpi-sum", "matrix.rows.3.cells.2.cpi.base=0"),
        ("defense.json", "cpi-sum", "overheads.rows.0.plain.cpi.rob=0"),
        ("defense.json", "cells-ok", "attacks.4.cells.2.ok=false"),
        ("defense.json", "coverage", "coverage.asan.detected=0"),
        ("defense.json", "paper-coverage", "attacks.9.cells.2.leaked_secret=false \
                                            coverage.rest-secure-full.leaked=0"),
        ("defense.json", "attribution", "check_attribution.plain.site_checks=1"),
        ("defense.json", "row-count", "overheads.rows=[]"),
        ("faults.json", "anchor", r#"rows.2.cells.0.outcome="sdc""#),
        ("faults.json", "provenance", "rows.2.cells.1.audit_injector_entries=0"),
        ("faults.json", "coverage", "coverage.masked=0"),
        ("faults.json", "known-outcomes", "rows.0.cells.5.false_positive=false \
                                           coverage.false_positives=1"),
        ("faults.json", "known-outcomes", "expected_outcomes.checked=false"),
        ("faults.json", "known-outcomes", "expected_outcomes.known_false_positives=[]"),
        ("fuzz.json", "ran-dry", "ran_dry=false"),
        ("fuzz.json", "kinds", "signatures={}"),
        ("fuzz.json", "count-sum", "programs=1"),
        ("fuzz.json", "minimized", "signatures.oob-write/agree-detected.minimized_ops=[]"),
    ];
    for (name, rule, edits) in cases {
        let mut doc = committed(name);
        edit(&mut doc, edits);
        let err = validate(&doc).expect_err(rule);
        assert!(
            err.starts_with(&format!("{rule}: ")),
            "{name}: expected {rule}, got {err}"
        );
    }
}

#[test]
fn cross_document_rules_reject_mutations() {
    assert_eq!(rest_bench::defense::SCHEMES[REST], "rest-secure-full");
    let [elision, defense, fuzz] = ["elision.json", "defense.json", "fuzz.json"].map(committed);
    let files = regress_files();

    let mut missed = elision.clone();
    edit(&mut missed, "attacks.0.detected=false");
    let err = cross_check(&missed, &defense, &fuzz, &files).unwrap_err();
    assert!(err.starts_with("elision-detection: "), "{err}");

    let orphan: Vec<String> = files
        .iter()
        .filter(|f| *f != "oob-read--agree-detected.trace")
        .cloned()
        .collect();
    let err = cross_check(&elision, &defense, &fuzz, &orphan).unwrap_err();
    assert!(err.starts_with("regress-corpus: "), "{err}");
}
