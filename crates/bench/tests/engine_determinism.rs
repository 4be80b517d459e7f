//! Engine-level guarantees the harness binaries rely on:
//!
//! * the serialised JSON document is **byte-identical** regardless of
//!   the worker count (`--jobs 1` vs `--jobs 4`),
//! * a failing job surfaces as a structured `JobError` without taking
//!   down sibling jobs in the same sweep.

use rest_bench::engine::{ColumnSpec, Engine, MatrixSpec, SimJob};
use rest_bench::sink::ResultSink;
use rest_bench::FigureRow;
use rest_core::Mode;
use rest_runtime::RtConfig;
use rest_workloads::{Scale, Workload};

fn small_matrix() -> MatrixSpec {
    MatrixSpec::new(
        vec![FigureRow::of(Workload::Lbm), FigureRow::of(Workload::Sjeng)],
        vec![
            ColumnSpec::new("asan", RtConfig::asan()),
            ColumnSpec::new("rest-secure-full", RtConfig::rest(Mode::Secure, true)),
        ],
        Scale::Test,
    )
}

fn render(matrix: &rest_bench::engine::MatrixResults) -> String {
    let mut sink = ResultSink::new("engine-test", Scale::Test, None);
    sink.push_matrix("matrix", matrix);
    sink.to_json_string()
}

#[test]
fn json_is_byte_identical_across_worker_counts() {
    let spec = small_matrix();
    let sequential = render(&Engine::new(1).run_matrix(&spec));
    let parallel = render(&Engine::new(4).run_matrix(&spec));
    assert!(
        sequential.contains("\"benchmark\": \"lbm\""),
        "document should contain the lbm row:\n{sequential}"
    );
    assert!(sequential.contains("\"overhead_pct\""));
    assert!(sequential.contains("\"wtd_ari_mean_pct\""));
    assert_eq!(
        sequential, parallel,
        "JSON must not depend on worker scheduling"
    );
}

#[test]
fn failing_job_does_not_kill_siblings() {
    let row = FigureRow::of(Workload::Lbm);
    let healthy = SimJob::plain(&row, Scale::Test);
    let mut starved = SimJob {
        label: "starved".to_string(),
        ..healthy.clone()
    };
    // A ~hundred-kiloinstruction workload cannot finish in 40 µops: the
    // run stops with StopReason::UopLimit and must surface as a
    // JobError, not a panic or process abort.
    starved.cfg.max_uops = 40;
    let sibling = SimJob::plain(&FigureRow::of(Workload::Sjeng), Scale::Test);

    let engine = Engine::new(3);
    let outcomes = engine.run_all(&[healthy, starved, sibling]);
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].is_ok(), "healthy job should succeed");
    assert!(outcomes[2].is_ok(), "sibling job should succeed");
    let err = outcomes[1].as_ref().as_ref().unwrap_err();
    assert_eq!(err.kind, "uop-limit");
    assert!(
        err.detail.contains("lbm"),
        "detail names the workload: {err}"
    );
}

#[test]
fn failed_cells_serialise_as_errors_and_keep_summaries_finite() {
    // One good column and one starved column: the matrix still renders,
    // the starved cells carry "error" objects, and the summary over the
    // surviving column stays finite.
    let spec = MatrixSpec::new(
        vec![FigureRow::of(Workload::Lbm)],
        vec![
            ColumnSpec::new("ok", RtConfig::asan()),
            ColumnSpec::new("starved", RtConfig::asan()),
        ],
        Scale::Test,
    );
    let engine = Engine::new(2);
    let mut matrix = engine.run_matrix(&spec);

    // Inject the failure deterministically by re-running the starved
    // column as its own job with a tiny micro-op budget.
    let mut starved_job = SimJob::new(&spec.rows[0], "starved", RtConfig::asan(), Scale::Test);
    starved_job.cfg.max_uops = 40;
    matrix.rows[0].cells[1] = engine.run_all(&[starved_job]).remove(0);

    assert!(matrix.rows[0].cell(0).is_some());
    assert!(matrix.rows[0].cell(1).is_none());
    assert!(matrix.rows[0].overhead_pct(1).is_nan());
    let summary = matrix.summary();
    assert!(summary[0].0.is_finite() && summary[0].1.is_finite());
    assert_eq!(summary[1], (0.0, 0.0), "failed column summarises to zero");

    let doc = render(&matrix);
    assert!(doc.contains("\"error\""));
    assert!(doc.contains("\"kind\": \"uop-limit\""));
}
