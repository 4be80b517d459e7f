//! `restlint` — lint the in-tree guest-program corpus.
//!
//! Runs the static ARM/DISARM verifier over every workload row of the
//! paper's figures (12 benchmarks, gobmk expanded to its five inputs)
//! and every attack scenario, prints a verdict table, and writes a
//! deterministic JSON report.
//!
//! ```text
//! Usage: restlint [OPTIONS]
//!
//!   --json PATH       JSON report path (default: results/lint.json)
//!   --filter SUBSTR   keep only programs whose name contains SUBSTR
//!   --differential    cross-check must-trap verdicts on the emulator
//!   --help            show this help
//! ```
//!
//! Exit status is non-zero when a workload has any finding (the corpus
//! must lint clean), when an attack program has none (every attack must
//! be flagged), or when a differential cross-check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use rest_core::{Mode, TokenWidth};
use rest_cpu::{Emulator, ExecEngine, SimConfig, StopReason};
use rest_runtime::{RtConfig, StackScheme};
use rest_verify::{report_json, verify_program, DiffOutcome, ProgramReport, Severity};
use rest_workloads::{Scale, Workload, WorkloadParams, GOBMK_INPUTS};

struct Cli {
    json: PathBuf,
    filter: Option<String>,
    differential: bool,
}

const USAGE: &str = "\
Usage: restlint [OPTIONS]

Statically verifies every workload and attack program.

  --json PATH       JSON report path (default: results/lint.json)
  --filter SUBSTR   keep only programs whose name contains SUBSTR
  --differential    cross-check must-trap verdicts on the emulator
  --help            show this help
";

impl Cli {
    fn from_args() -> Result<Cli, String> {
        let mut cli = Cli {
            json: PathBuf::from("results/lint.json"),
            filter: None,
            differential: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    cli.json = PathBuf::from(v);
                }
                "--filter" => {
                    let v = it.next().ok_or("--filter needs a substring")?;
                    cli.filter = Some(v.to_lowercase());
                }
                "--differential" => cli.differential = true,
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(cli)
    }

    fn keeps(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.to_lowercase().contains(f))
    }
}

/// The corpus: every figure row plus every attack, with the programs
/// built exactly as the benchmark and attack harnesses build them.
fn corpus(cli: &Cli) -> Vec<(String, &'static str, rest_isa::Program)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        let rows: Vec<(String, u64)> = if w == Workload::Gobmk {
            GOBMK_INPUTS
                .iter()
                .map(|&(n, s)| (n.to_string(), s))
                .collect()
        } else {
            vec![(w.name().to_string(), 0xC0FFEE)]
        };
        for (name, seed) in rows {
            if !cli.keeps(&name) {
                continue;
            }
            let params = WorkloadParams {
                scale: Scale::Test,
                stack_scheme: StackScheme::Rest,
                token_width: TokenWidth::B64,
                seed,
            };
            out.push((name, "workload", w.build(&params)));
        }
    }
    for a in rest_attacks::Attack::ALL {
        let name = a.name().to_string();
        if !cli.keeps(&name) {
            continue;
        }
        out.push((name, "attack", a.build(StackScheme::Rest)));
    }
    out
}

/// Replays `program` on the functional emulator under the full-REST
/// runtime and reports whether it raised a violation.
fn run_differential(name: &str, pc: u64, program: &rest_isa::Program) -> DiffOutcome {
    let rt = RtConfig::rest(Mode::Secure, true);
    let cfg = SimConfig::isca2018(rt);
    let mut emu = Emulator::new(program.clone(), &cfg);
    emu.run_functional();
    let stop = emu.take_stop().expect("run_functional stops");
    let (confirmed, outcome) = match &stop {
        StopReason::Violation(v) => (true, format!("violation: {v:?}")),
        other => (false, format!("{other:?}")),
    };
    DiffOutcome {
        name: name.to_string(),
        pc,
        confirmed,
        outcome,
    }
}

fn main() -> ExitCode {
    let cli = match Cli::from_args() {
        Ok(cli) => cli,
        Err(e) if e == "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("restlint: {e}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut reports = Vec::new();
    for (name, kind, program) in corpus(&cli) {
        let result = verify_program(&program);
        reports.push((ProgramReport { name, kind, result }, program));
    }

    // Verdict table.
    println!(
        "{:<22} {:<9} {:>6} {:>7} {:>9} {:>7}  verdict",
        "program", "kind", "insts", "blocks", "findings", "worst"
    );
    let mut failures = Vec::new();
    for (rep, _) in &reports {
        let worst = rep
            .max_severity()
            .map(|s| s.name())
            .unwrap_or("-")
            .to_string();
        let verdict = match rep.kind {
            "workload" => {
                if rep.is_clean() {
                    "clean"
                } else {
                    failures.push(format!("workload '{}' has findings", rep.name));
                    "DIRTY"
                }
            }
            _ => {
                if rep.result.findings.is_empty() {
                    failures.push(format!("attack '{}' produced no findings", rep.name));
                    "MISSED"
                } else {
                    "flagged"
                }
            }
        };
        println!(
            "{:<22} {:<9} {:>6} {:>7} {:>9} {:>7}  {verdict}",
            rep.name,
            rep.kind,
            rep.result.insts,
            rep.result.blocks,
            rep.result.findings.len(),
            worst
        );
        for f in &rep.result.findings {
            println!(
                "    [{:<9}] pc {:#x} {}: {}",
                f.severity.name(),
                f.pc,
                f.pass,
                f.message
            );
        }
    }

    // Differential cross-check: every must-trap verdict must reproduce
    // as a runtime violation under the full-REST configuration.
    let mut differential = None;
    if cli.differential {
        let mut outcomes = Vec::new();
        for (rep, program) in &reports {
            if rep.kind != "attack" {
                continue;
            }
            for f in &rep.result.findings {
                if f.severity != Severity::MustTrap {
                    continue;
                }
                let d = run_differential(&rep.name, f.pc, program);
                if !d.confirmed {
                    failures.push(format!(
                        "differential: '{}' must-trap at pc {:#x} did not reproduce ({})",
                        d.name, d.pc, d.outcome
                    ));
                }
                outcomes.push(d);
                break; // one representative verdict per program
            }
        }
        println!("\ndifferential cross-checks: {}", outcomes.len());
        for d in &outcomes {
            println!(
                "    {:<22} pc {:#x} {} ({})",
                d.name,
                d.pc,
                if d.confirmed { "confirmed" } else { "FAILED" },
                d.outcome
            );
        }
        differential = Some(outcomes);
    }

    // JSON report.
    let programs: Vec<ProgramReport> = reports.iter().map(|(r, _)| r.clone()).collect();
    let json = report_json(&programs, differential.as_deref());
    if let Some(dir) = cli.json.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("restlint: creating {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut text = json.to_string_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(&cli.json, text) {
        eprintln!("restlint: writing {}: {e}", cli.json.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", cli.json.display());

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nrestlint: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}
