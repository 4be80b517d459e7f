//! The repository commits `results/BENCH_baseline.json` — the host
//! document of a `fig7 --test` run — as the perf-trajectory baseline
//! the ROADMAP's optimisation work diffs against. This test keeps the
//! committed file valid against `rest-host-profile/v2`, whose
//! validator also requires the simulate and report phases.

use rest_obs::{HostProfile, Json};

#[test]
fn committed_baseline_is_schema_valid() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_baseline.json"
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("results/BENCH_baseline.json must be committed: {e}"));
    let doc = Json::parse(&text).expect("baseline parses as JSON");
    HostProfile::validate(&doc).expect("baseline matches rest-host-profile/v2");
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("fig7"),
        "the baseline is a fig7 profile"
    );
    // The full test-scale Figure 7 matrix: 16 rows x (plain + 7 columns).
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 128, "baseline records every fig7 job");
}
