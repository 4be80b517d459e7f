//! Command-line driver for the simulator (`rest-sim`).
//!
//! ```text
//! rest-sim run <program.s> [--scheme plain|asan|rest|mte-*|pa] [--mode secure|debug]
//!              [--scope full|heap] [--width 16|32|64] [--perfect-hw]
//!              [--sprinkle] [--trace N] [--quarantine BYTES]
//! rest-sim workload <name> [--scale test|ref] [same scheme flags]
//! rest-sim list
//! ```
//!
//! The parsing and dispatch live here (testable); the binary in
//! `src/bin/rest_sim.rs` is a thin wrapper.

use std::fmt::Write as _;

use crate::prelude::*;
use rest_isa::parse_asm;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Assemble and simulate a guest program from a `.s` file.
    Run { path: String, opts: Options },
    /// Simulate one of the built-in SPEC-like workloads.
    Workload {
        name: String,
        scale: Scale,
        opts: Options,
    },
    /// List built-in workloads and configuration labels.
    List,
    /// Print usage.
    Help,
}

/// Scheme/options shared by `run` and `workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub rt: RtConfig,
    pub trace: usize,
}

impl Options {
    /// The Table II machine under these options.
    fn sim_config(self) -> SimConfig {
        SimConfig {
            trace_uops: self.trace,
            ..SimConfig::isca2018(self.rt)
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            rt: RtConfig::rest(Mode::Secure, true),
            trace: 0,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
rest-sim — cycle-level simulator for REST memory safety (ISCA 2018)

USAGE:
  rest-sim run <program.s> [options]     assemble and simulate a program
  rest-sim workload <name> [options]     simulate a built-in workload
  rest-sim list                          list workloads and schemes

OPTIONS:
  --scheme LABEL             protection scheme        (default: rest)
                             labels: plain, asan, rest, pa,
                             mte-sync|mte-async|mte-asymm, rest-<hw>-<scope>
  --mode secure|debug        REST exception mode      (default: secure)
  --scope full|heap          protection scope         (default: full)
  --width 16|32|64           token width in bytes     (default: 64)
  --quarantine BYTES         quarantine pool budget
  --perfect-hw               PerfectHW limit study (arm/disarm -> store)
  --sprinkle                 decoy-token sprinkling (REST only)
  --fast-pool                REST-aware fast-pool allocator (§VIII)
  --scale test|ref           workload input scale     (default: test)
  --trace N                  print a pipeline diagram of the first N uops
";

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags, or
/// malformed values.
pub fn parse_args<I, S>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "run" | "workload" => {
            let target = args
                .get(1)
                .filter(|s| !s.starts_with("--"))
                .ok_or_else(|| format!("'{cmd}' needs a target argument"))?
                .clone();
            let mut scheme = "rest".to_string();
            let mut mode = Mode::Secure;
            let mut full = true;
            let mut width = TokenWidth::B64;
            let mut quarantine: Option<u64> = None;
            let mut perfect = false;
            let mut sprinkle = false;
            let mut fast_pool = false;
            let mut scale = Scale::Test;
            let mut trace = 0usize;

            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--scheme" => scheme = value("--scheme")?,
                    "--mode" => {
                        mode = match value("--mode")?.as_str() {
                            "secure" => Mode::Secure,
                            "debug" => Mode::Debug,
                            other => return Err(format!("unknown mode '{other}'")),
                        }
                    }
                    "--scope" => {
                        full = match value("--scope")?.as_str() {
                            "full" => true,
                            "heap" => false,
                            other => return Err(format!("unknown scope '{other}'")),
                        }
                    }
                    "--width" => {
                        width = match value("--width")?.as_str() {
                            "16" => TokenWidth::B16,
                            "32" => TokenWidth::B32,
                            "64" => TokenWidth::B64,
                            other => return Err(format!("unknown token width '{other}'")),
                        }
                    }
                    "--quarantine" => {
                        quarantine = Some(
                            value("--quarantine")?
                                .parse()
                                .map_err(|_| "bad --quarantine value".to_string())?,
                        )
                    }
                    "--perfect-hw" => perfect = true,
                    "--sprinkle" => sprinkle = true,
                    "--fast-pool" => fast_pool = true,
                    "--scale" => {
                        scale = match value("--scale")?.as_str() {
                            "test" => Scale::Test,
                            "ref" => Scale::Ref,
                            other => return Err(format!("unknown scale '{other}'")),
                        }
                    }
                    "--trace" => {
                        trace = value("--trace")?
                            .parse()
                            .map_err(|_| "bad --trace value".to_string())?
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }

            let mut rt = match scheme.as_str() {
                "rest" => {
                    if perfect {
                        RtConfig::rest_perfect(full)
                    } else {
                        RtConfig::rest(mode, full)
                    }
                }
                // Anything else resolves through the harness labels:
                // plain, asan, pa, mte-sync/async/asymm, rest-*-*.
                other => RtConfig::from_label(other)
                    .ok_or_else(|| format!("unknown scheme '{other}'"))?,
            };
            rt = rt.with_token_width(width);
            if let Some(q) = quarantine {
                rt = rt.with_quarantine(q);
            }
            if sprinkle {
                rt = rt.with_sprinkle();
            }
            if fast_pool {
                rt = rt.with_fast_pool();
            }
            let opts = Options { rt, trace };
            if cmd == "run" {
                Ok(Command::Run { path: target, opts })
            } else {
                Ok(Command::Workload {
                    name: target,
                    scale,
                    opts,
                })
            }
        }
        other => Err(format!("unknown command '{other}' (try 'rest-sim help')")),
    }
}

/// Renders one simulation result as the report the CLI prints.
pub fn report(r: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "configuration : {}", r.label);
    let _ = writeln!(out, "stop          : {:?}", r.stop);
    let _ = writeln!(out, "cycles        : {}", r.core.cycles);
    let _ = writeln!(out, "instructions  : {}", r.core.insts);
    let _ = writeln!(out, "micro-ops     : {} ({:.2} per cycle)", r.core.uops, r.core.uipc());
    let _ = writeln!(
        out,
        "branches      : {} lookups, {} mispredicted",
        r.core.branch_lookups, r.core.branch_mispredicts
    );
    let _ = writeln!(
        out,
        "L1D           : {} hits, {} misses ({:.1}% hit rate)",
        r.mem.l1d_hits,
        r.mem.l1d_misses,
        r.mem.l1d_hit_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "allocator     : {} allocs, {} frees, peak {} B live",
        r.alloc.allocs, r.alloc.frees, r.alloc.peak_live_bytes
    );
    let _ = writeln!(
        out,
        "REST          : {} fill-path detections, {} hw exceptions, {} lsq exceptions",
        r.mem.token_detections_on_fill, r.mem.rest_exceptions, r.core.lsq_rest_exceptions
    );
    if !r.output.is_empty() {
        let _ = writeln!(out, "output        : {:?}", String::from_utf8_lossy(&r.output));
    }
    if let Some(t) = &r.trace {
        let _ = writeln!(out, "\npipeline trace:");
        let _ = write!(out, "{t}");
    }
    out
}

/// Executes a parsed command; returns the text to print.
///
/// # Errors
///
/// I/O and assembly failures are returned as display-ready strings.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut out = String::new();
            let _ = writeln!(out, "workloads:");
            for w in Workload::ALL {
                let p = w.profile();
                let _ = writeln!(
                    out,
                    "  {:<12} alloc={:?} stack-buffers={} libc-calls={}",
                    p.name, p.alloc_intensity, p.uses_stack_buffers, p.uses_libc_calls
                );
            }
            let _ = writeln!(out, "\nschemes: plain, asan, rest (secure|debug, full|heap, 16|32|64B), mte-sync|async|asymm, pa");
            Ok(out)
        }
        Command::Run { path, opts } => {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read '{path}': {e}"))?;
            let program = parse_asm(&src).map_err(|e| e.to_string())?;
            Ok(report(&System::new(program, opts.sim_config()).run()))
        }
        Command::Workload { name, scale, opts } => {
            let w = Workload::from_name(&name)
                .ok_or_else(|| format!("unknown workload '{name}' (try 'rest-sim list')"))?;
            Ok(report(&crate::run_workload(w, scale, opts.sim_config())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = parse_args([
            "run",
            "prog.s",
            "--scheme",
            "rest",
            "--mode",
            "debug",
            "--scope",
            "heap",
            "--width",
            "16",
            "--quarantine",
            "4096",
            "--sprinkle",
            "--trace",
            "20",
        ])
        .unwrap();
        match cmd {
            Command::Run { path, opts } => {
                assert_eq!(path, "prog.s");
                assert_eq!(opts.rt.mode, Mode::Debug);
                assert!(!opts.rt.stack_protection);
                assert_eq!(opts.rt.token_width, TokenWidth::B16);
                assert_eq!(opts.rt.quarantine_bytes, 4096);
                assert!(opts.rt.sprinkle_tokens);
                assert_eq!(opts.trace, 20);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_workload_and_defaults() {
        let cmd = parse_args(["workload", "lbm"]).unwrap();
        match cmd {
            Command::Workload { name, scale, opts } => {
                assert_eq!(name, "lbm");
                assert_eq!(scale, Scale::Test);
                assert_eq!(opts.rt.label(), "rest-secure-full");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(["run"]).is_err());
        assert!(parse_args(["run", "x.s", "--scheme", "mystery"]).is_err());
        assert!(parse_args(["run", "x.s", "--width", "48"]).is_err());
        assert!(parse_args(["frobnicate"]).is_err());
        assert!(parse_args(["run", "x.s", "--trace"]).is_err());
    }

    #[test]
    fn empty_args_and_help_show_usage() {
        assert_eq!(parse_args(Vec::<String>::new()).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
        let text = execute(Command::Help).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn list_names_every_workload() {
        let text = execute(Command::List).unwrap();
        for w in Workload::ALL {
            assert!(text.contains(w.name()), "missing {w}");
        }
    }

    #[test]
    fn executes_a_workload_end_to_end() {
        let cmd = parse_args(["workload", "lbm", "--scheme", "plain"]).unwrap();
        let text = execute(cmd).unwrap();
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("Exit(0)"), "{text}");
    }

    #[test]
    fn executes_an_assembled_program_with_trace() {
        let dir = std::env::temp_dir().join("rest_sim_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.s");
        std::fs::write(&path, "li a0, 0\necall exit\n").unwrap();
        let cmd = parse_args([
            "run",
            path.to_str().unwrap(),
            "--scheme",
            "rest",
            "--trace",
            "8",
        ])
        .unwrap();
        let text = execute(cmd).unwrap();
        assert!(text.contains("pipeline trace"), "{text}");
        assert!(text.contains("Exit(0)"), "{text}");
    }

    #[test]
    fn unknown_workload_is_reported() {
        let cmd = parse_args(["workload", "quake3"]).unwrap();
        let err = execute(cmd).unwrap_err();
        assert!(err.contains("quake3"));
    }
}
