//! End-to-end observability guarantees (ISSUE 2):
//!
//! * every matrix cell's CPI stack sums **exactly** to its
//!   `core.cycles`,
//! * the interval time-series is byte-identical across `--jobs 1` and
//!   `--jobs 8` (sampling happens inside the deterministic simulation,
//!   never on the host clock),
//! * the Perfetto export is valid Chrome trace-event JSON with one
//!   slice per traced micro-op per stage track,
//! * the engine's per-job log feeds a schema-valid
//!   `rest-host-profile/v2` document, and a panicking job fails the
//!   harness run once that document is written.

use rest_bench::cli::{BenchCli, Harness};
use rest_bench::engine::{ColumnSpec, Engine, MatrixSpec, SimJob};
use rest_bench::sink::ResultSink;
use rest_bench::FigureRow;
use rest_core::Mode;
use rest_obs::{HostProfile, Json};
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload};

fn obs_spec() -> MatrixSpec {
    let mut spec = MatrixSpec::new(
        vec![FigureRow::of(Workload::Lbm)],
        vec![
            ColumnSpec::new("asan", RtConfig::asan()),
            ColumnSpec::new("rest-secure-heap", RtConfig::rest(Mode::Secure, false)),
        ],
        Scale::Test,
    );
    spec.cfg.sample_interval = 2_000;
    spec.cfg.trace_uops = 64;
    spec
}

fn render(matrix: &rest_bench::engine::MatrixResults) -> String {
    let mut sink = ResultSink::new("obs-test", Scale::Test, None);
    sink.push_matrix("matrix", matrix);
    sink.to_json_string()
}

/// Walks every successful cell object (plain + hardened) of the
/// document's matrix rows.
fn each_cell(doc: &Json, mut f: impl FnMut(&Json)) {
    let rows = doc
        .get("matrix")
        .and_then(|m| m.get("rows"))
        .and_then(Json::as_arr)
        .expect("matrix.rows");
    for row in rows {
        if let Some(plain) = row.get("plain") {
            f(plain);
        }
        for cell in row.get("cells").and_then(Json::as_arr).unwrap() {
            if cell.get("error").is_none() {
                f(cell);
            }
        }
    }
}

#[test]
fn cpi_stacks_sum_to_cycles_in_every_cell() {
    let matrix = Engine::new(2).run_matrix(&obs_spec());
    let doc = Json::parse(&render(&matrix)).expect("sink output parses");
    rest_bench::sink::validate(&doc).expect("rule cpi-sum holds in every cell");
    let mut cells = 0;
    each_cell(&doc, |cell| {
        cells += 1;
        // Derived rates ride along in every cell.
        let derived = cell.get("derived").expect("derived object");
        assert!(derived.get("core.uipc").and_then(Json::as_f64).unwrap() > 0.0);
        let hit_rate = derived
            .get("mem.l1d_hit_rate")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&hit_rate));
        derived
            .get("tokens_per_kiloinst_l2_mem")
            .and_then(Json::as_f64)
            .unwrap();
    });
    assert_eq!(cells, 3, "plain + two hardened cells");

    // The rule is not vacuous: one stack off by a cycle breaks it.
    let mut broken = doc.clone();
    let base = broken.path_mut("matrix.rows.0.cells.1.cpi.base").unwrap();
    *base = Json::UInt(base.as_u64().unwrap() + 1);
    let err = rest_bench::sink::validate(&broken).unwrap_err();
    assert!(err.starts_with("cpi-sum: lbm/rest-secure-heap: "), "{err}");
}

#[test]
fn time_series_is_byte_identical_across_worker_counts() {
    let spec = obs_spec();
    let sequential = render(&Engine::new(1).run_matrix(&spec));
    let parallel = render(&Engine::new(8).run_matrix(&spec));
    assert!(
        sequential.contains("\"series\""),
        "sampling must emit a series section:\n{sequential}"
    );
    assert_eq!(
        sequential, parallel,
        "time-series (and the whole document) must not depend on --jobs"
    );
    // The series carries real samples with gauges and counters.
    let doc = Json::parse(&sequential).unwrap();
    let mut saw_samples = false;
    each_cell(&doc, |cell| {
        let Some(series) = cell.get("series") else {
            return;
        };
        assert_eq!(series.get("interval").and_then(Json::as_u64), Some(2_000));
        let samples = series.get("samples").and_then(Json::as_arr).unwrap();
        if samples.is_empty() {
            return;
        }
        saw_samples = true;
        let first = &samples[0];
        assert_eq!(first.get("insts").and_then(Json::as_u64), Some(2_000));
        first.get("gauges").expect("gauges object");
        assert!(
            first
                .get("counters")
                .and_then(|c| c.get("core.cycles"))
                .and_then(Json::as_u64)
                .is_some(),
            "counters carry the full stats map"
        );
    });
    assert!(saw_samples, "test-scale lbm runs >2000 instructions");
}

#[test]
fn perfetto_trace_covers_the_first_job() {
    let matrix = Engine::new(2).run_matrix(&obs_spec());
    let trace = matrix.first_trace().expect("first job was traced");
    assert_eq!(trace.entries().len(), 64);
    let doc = trace.to_perfetto();
    assert_eq!(doc.slice_count(), 64 * 5, "one slice per uop per stage");
    let parsed = Json::parse(&doc.render()).expect("valid trace-event JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let per_track: Vec<usize> = (1..=5)
        .map(|tid| {
            events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("tid").and_then(Json::as_u64) == Some(tid)
                })
                .count()
        })
        .collect();
    assert_eq!(per_track, vec![64; 5], "every stage track has every uop");
}

#[test]
fn engine_timings_feed_a_schema_valid_profile() {
    let engine = Engine::new(2);
    let spec = obs_spec();
    engine.run_matrix(&spec);
    engine.run_matrix(&spec); // second run: all cache hits
    let timings = engine.take_timings();
    // 3 jobs per matrix (plain + 2 columns), second pass fully cached.
    assert_eq!(timings.len(), 6);
    assert!(timings[..3].iter().all(|t| !t.cached && t.worker < 2));
    assert!(timings[3..].iter().all(|t| t.cached));
    assert!(timings.iter().all(|t| t.outcome == "ok"));
    assert!(engine.take_timings().is_empty(), "draining resets the log");

    let mut profile = HostProfile::new("obs-test", engine.workers());
    profile.add_phase("simulate", std::time::Duration::from_millis(1));
    profile.add_phase("report", std::time::Duration::from_millis(1));
    for t in timings {
        profile.add_job(t);
    }
    let doc = Json::parse(&profile.to_json().to_string_pretty()).expect("profile renders as JSON");
    HostProfile::validate(&doc).expect("rest-host-profile/v2 schema");
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(3));
}

#[test]
fn a_panicking_job_fails_the_run_after_the_documents_are_written() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("panic-run");
    let profile = dir.join("profile.json");
    let campaign = dir.join("campaign.json");
    let harness = |jobs: &[SimJob]| {
        let args = [
            "--jobs",
            "1",
            "--profile-out",
            profile.to_str().unwrap(),
            "--campaign-trace-out",
            campaign.to_str().unwrap(),
        ];
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut h = Harness::new(BenchCli::from_args(&args).unwrap());
        h.begin("obs-test", Scale::Test);
        h.run_all(jobs);
        h.end();
        h.finish()
    };
    let row = FigureRow::of(Workload::Lbm);
    let healthy = SimJob::plain(&row, Scale::Test);
    let panicking = SimJob {
        label: "boom".to_string(),
        inject_panic: true,
        ..healthy.clone()
    };
    let err = harness(&[healthy.clone(), panicking]).unwrap_err();
    assert!(
        err.contains("1 job(s) panicked: obs-test: lbm boom"),
        "{err}"
    );
    // Both documents were written first, and the profile counts the panic.
    let doc = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    HostProfile::validate(&doc).unwrap();
    assert_eq!(doc.get("panics").and_then(Json::as_u64), Some(1));
    assert!(campaign.exists());

    // Without a panic the same run succeeds.
    harness(&[healthy]).expect("a clean run passes");
}

#[test]
fn regen_profiles_every_experiment_it_runs() {
    // Campaigns that drive plain job lists or tasks instead of a matrix
    // land in the host document like the figures do.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("regen-profile");
    let profile = dir.join("profile.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_regen"))
        .args(["--test", "--jobs", "2", "faults", "fuzz"])
        .arg("--out")
        .arg(&dir)
        .arg("--profile-out")
        .arg(&profile)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    // Both campaigns are pure functions of their scale: a run reproduces
    // the committed documents byte for byte.
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for file in ["faults.json", "fuzz.json"] {
        let committed = std::fs::read_to_string(format!("{results}/{file}")).unwrap();
        let written = std::fs::read_to_string(dir.join(file)).unwrap();
        assert!(written == committed, "{file} differs from results/{file}");
    }
    let doc = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    HostProfile::validate(&doc).unwrap();
    let experiments: Vec<&str> = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(experiments, ["faults", "fuzz"]);
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
    assert!(!jobs.is_empty());
    assert!(jobs.iter().all(|j| {
        let label = j.get("label").and_then(Json::as_str).unwrap();
        label.starts_with("faults: ")
    }));
    // The fuzz campaign's tri-oracle tasks run on the engine pool and
    // accrue to the "simulate" phase like the fault cells do.
    for list in ["phases", "experiments"] {
        for entry in doc.get(list).and_then(Json::as_arr).unwrap() {
            let wall = entry.get("wall_s").and_then(Json::as_f64).unwrap();
            assert!(wall > 0.0, "{list}: {entry:?}");
        }
    }
}
