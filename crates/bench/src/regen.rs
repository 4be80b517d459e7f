//! The experiment table behind the `regen` binary: every committed
//! result under `results/` comes from one entry here, run on one
//! [`Harness`] — one engine job cache, one host profile, one exit
//! status.
//!
//! ```text
//! cargo run --release -p rest-bench --bin regen -- [EXPERIMENT ...] [--test] [--out DIR]
//! ```

use rest_workloads::Scale;

use crate::cli::{BenchCli, Harness};
use crate::sink::Artifact;
use crate::{defense, elide, faults, figures, fuzz, hotspots};

/// One experiment: what it is called, the scale its committed artifacts
/// are produced at, the files it writes, and the function producing
/// them.
pub struct Experiment {
    /// Name on the command line; also the `experiment` member of its
    /// documents and the prefix of its job labels.
    pub name: &'static str,
    /// Scale of the committed artifacts (`--test` overrides it).
    pub scale: Scale,
    /// Every file the experiment may write under `--out`.
    pub artifacts: &'static [&'static str],
    /// Runs the experiment and returns its artifacts. An `Err` fails
    /// the experiment without writing any of them.
    pub run: fn(&mut Harness) -> Result<Vec<Artifact>, String>,
}

/// Every experiment, in run order. The paper's figures and tables run
/// at reference scale. The five campaigns run at test scale: every
/// campaign gate is calibrated there, and the fault campaign's
/// known-outcome tables bind only at test scale (`faults::tables_bind`).
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment { name: "fig3", scale: Scale::Ref, artifacts: &["fig3.json", "fig3.txt"], run: figures::fig3 },
    Experiment { name: "fig7", scale: Scale::Ref, artifacts: &["fig7.json", "fig7.txt"], run: figures::fig7 },
    Experiment { name: "fig8", scale: Scale::Ref, artifacts: &["fig8.json", "fig8.txt"], run: figures::fig8 },
    Experiment { name: "table1", scale: Scale::Ref, artifacts: &["table1.json", "table1.txt"], run: figures::table1 },
    Experiment { name: "table3", scale: Scale::Ref, artifacts: &["table3.json", "table3.txt"], run: figures::table3 },
    Experiment { name: "prose_stats", scale: Scale::Ref, artifacts: &["prose_stats.json", "prose_stats.txt"], run: figures::prose_stats },
    Experiment { name: "ablations", scale: Scale::Ref, artifacts: &["ablations.json", "ablations.txt"], run: figures::ablations },
    Experiment { name: "defense", scale: Scale::Test, artifacts: &["defense.json"], run: defense::run_campaign },
    Experiment { name: "elision", scale: Scale::Test, artifacts: &["elision.json"], run: elide::run_campaign },
    Experiment { name: "faults", scale: Scale::Test, artifacts: &["faults.json"], run: faults::run_campaign },
    Experiment { name: "fuzz", scale: Scale::Test, artifacts: &["fuzz.json"], run: fuzz::run_campaign },
    Experiment { name: "hotspots", scale: Scale::Test, artifacts: &["hotspots.json", "hotspots.folded", "hotspots.perfetto.json"], run: hotspots::run_campaign },
];

/// Runs the experiments the command line names (all of them when it
/// names none) in table order, writes their artifacts into `--out`, and
/// closes the run with [`Harness::finish`]. Fails when any experiment
/// failed or any job panicked.
pub fn run(cli: BenchCli) -> Result<(), String> {
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| cli.experiments.is_empty() || cli.experiments.iter().any(|n| n == e.name))
        .collect();
    let mut h = Harness::new(cli);
    for experiment in selected {
        h.begin(experiment.name, experiment.scale);
        match (experiment.run)(&mut h) {
            Ok(artifacts) => {
                for artifact in &artifacts {
                    let written = if experiment.artifacts.contains(&artifact.file.as_str()) {
                        crate::write_text_file(&h.cli.out.join(&artifact.file), &artifact.text)
                    } else {
                        Err(format!("undeclared artifact {}", artifact.file))
                    };
                    if let Err(e) = written {
                        h.fail(e);
                    }
                }
            }
            Err(e) => h.fail(e),
        }
        h.end();
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_artifacts_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut files: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.artifacts.to_vec())
            .collect();
        let (n, f) = (names.len(), files.len());
        names.sort();
        names.dedup();
        files.sort();
        files.dedup();
        assert_eq!((names.len(), files.len()), (n, f));
    }

    #[test]
    fn no_experiment_writes_a_host_dependent_file() {
        // `BENCH_*` files hold host measurements; regen writes only
        // deterministic artifacts (the host profile goes to
        // `--profile-out`).
        for e in &EXPERIMENTS {
            for file in e.artifacts {
                assert!(!file.starts_with("BENCH_"), "{}: {file}", e.name);
            }
        }
    }

    #[test]
    fn an_experiment_writes_only_its_declared_artifacts() {
        let out = std::env::temp_dir().join(format!("rest-regen-{}", std::process::id()));
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let out_arg = out.to_string_lossy().to_string();
        let cli = BenchCli::from_args(&argv(&["table1", "--test", "--out", &out_arg])).unwrap();
        run(cli).expect("table1 runs without simulating");
        let mut written: Vec<String> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        written.sort();
        assert_eq!(written, ["table1.json", "table1.txt"]);
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn fig7_simulates_each_full_heap_twin_with_one_program_once() {
        // 8 of the 16 figure rows protect no stack frame, so under each
        // of the three REST modes Full builds Heap's program.
        let out = std::env::temp_dir().join(format!("rest-regen-fig7-{}", std::process::id()));
        let profile = out.join("profile.json");
        let args = [
            "fig7",
            "--test",
            "--jobs",
            "2",
            "--out",
            &out.to_string_lossy(),
            "--profile-out",
            &profile.to_string_lossy(),
        ]
        .map(String::from);
        run(BenchCli::from_args(&args).unwrap()).expect("fig7 runs");
        let doc = rest_obs::Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        let jobs = doc.get("jobs").and_then(rest_obs::Json::as_arr).unwrap();
        let fig7: Vec<_> = jobs
            .iter()
            .filter(|j| {
                j.get("label")
                    .and_then(rest_obs::Json::as_str)
                    .is_some_and(|l| l.starts_with("fig7: "))
            })
            .collect();
        let cached = fig7
            .iter()
            .filter(|j| j.get("cached") == Some(&rest_obs::Json::Bool(true)))
            .count();
        assert_eq!((fig7.len(), cached), (128, 24));
        std::fs::remove_dir_all(&out).unwrap();
    }
}
