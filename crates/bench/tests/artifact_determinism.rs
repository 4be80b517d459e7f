//! The repository's byte-determinism contract (ISSUE 7, satellite 1):
//! committed experiment documents (`results/*.json`) must be
//! byte-identical at any `--jobs` level, which means host-dependent
//! measurements — wall times, throughput rates, worker counts, per-job
//! host logs — may only live in `BENCH_`-prefixed files. This test walks
//! every committed non-`BENCH_` document and rejects any key that
//! could only have come from the host clock or scheduler.
//!
//! It also keeps the committed hotspot profile honest: the document
//! must validate against `rest-hotspots/v1`, whose checks include the
//! exact per-block cycle sums the profiler guarantees.

use rest_obs::Json;

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
    // list itself: the three nondeterministic artefacts the repository
    // commits must all be present and all be exempt.
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
    for required in [
        "BENCH_baseline.json",
        "BENCH_elision.json",
        "BENCH_throughput.json",
    ] {
        assert!(
            bench_files.iter().any(|n| n == required),
            "results/{required} must be committed (have {bench_files:?})"
        );
    }
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

    // Spot-check the specific keys each gate relies on.
    let mut violations = Vec::new();
    let throughput =
        Json::parse(&std::fs::read_to_string(dir.join("BENCH_throughput.json")).unwrap()).unwrap();
    scan(&throughput, "BENCH_throughput.json", &mut violations);
    assert!(
        violations.iter().any(|v| v.ends_with(".fast_ips")),
        "the throughput baseline carries the gated fast_ips keys"
    );
    assert!(
        violations.iter().any(|v| v.ends_with(".trace_ips")),
        "the throughput baseline carries the gated trace_ips keys"
    );
    assert!(violations.iter().any(|v| v.ends_with(".effective_jobs")));

    violations.clear();
    let elision =
        Json::parse(&std::fs::read_to_string(dir.join("BENCH_elision.json")).unwrap()).unwrap();
    scan(&elision, "BENCH_elision.json", &mut violations);
    assert!(violations.iter().any(|v| v.ends_with("_wall_s")));

    violations.clear();
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

#[test]
fn committed_hotspot_profile_is_schema_valid() {
    let text = std::fs::read_to_string(results_dir().join("hotspots.json"))
        .expect("results/hotspots.json must be committed");
    let doc = Json::parse(&text).expect("hotspot document parses");
    rest_obs::hotspots::validate(&doc).expect("matches rest-hotspots/v1");
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(
        rows.len(),
        16 * 2,
        "16 benchmark rows x (plain, rest-secure-full)"
    );
}
