//! Guest hotspot-profiler campaign (the `hotspots` experiment of `regen`).
//!
//! Runs the full benchmark set under `plain` and the paper's headline
//! `rest-secure-full` configuration with guest profiling on, then rolls
//! the simulator's dense per-PC cycle/uop/check counters up through
//! `rest-verify`'s CFG recovery into per-basic-block and per-function
//! reports, alongside the per-allocation-site check-attribution table.
//!
//! Three artefacts come out of one campaign:
//!
//! * `results/hotspots.json` — the `rest-hotspots/v1` document
//!   (schema + validator in [`rest_obs::hotspots`]), byte-identical at
//!   any `--jobs` level;
//! * `results/hotspots.folded` — folded-stack text
//!   (`benchmark;scheme;function;block N`), ready for
//!   `flamegraph.pl`/inferno;
//! * `results/hotspots.perfetto.json` — Perfetto counter tracks: per
//!   row, the cycle and check-uop density over the code segment
//!   (timestamp = block start PC).
//!
//! Every rollup re-derives the CFG from the cell's own job
//! (`SimJob::build`), so block boundaries always match what actually
//! simulated. The rollup *asserts* the exact-sum invariants the
//! validator re-checks: per-block cycles sum to `core.cycles` (the
//! profiler attributes every committed cycle to a guest PC and the CFG
//! partitions the code segment), and per-site check micro-ops sum to
//! the per-PC check-uop total.

use rest_core::SiteCounters;
use rest_cpu::{GuestProfile, SimResult};
use rest_obs::{Json, PerfettoTrace};
use rest_runtime::RtConfig;
use rest_verify::Cfg;
use rest_workloads::Scale;

use crate::cli::Harness;
use crate::engine::{ColumnSpec, MatrixSpec, SimJob};
use crate::sink::Artifact;
use crate::table::{Align, Table};
use crate::FigureRow;

/// The profiled configurations, by harness label: the baseline and the
/// paper's headline REST configuration.
pub const SCHEMES: [&str; 2] = ["plain", "rest-secure-full"];

/// The campaign's scheme set, resolved through [`RtConfig::from_label`].
pub fn scheme_configs() -> Vec<(&'static str, RtConfig)> {
    SCHEMES
        .iter()
        .map(|&label| {
            let rt = RtConfig::from_label(label).expect("hotspot scheme labels are canonical");
            (label, rt)
        })
        .collect()
}

/// One basic block's share of the profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockRollup {
    /// First PC of the block.
    pub start: u64,
    /// Exclusive end PC.
    pub end: u64,
    /// Committed cycles attributed to the block's PCs.
    pub cycles: u64,
    /// Retired micro-ops attributed to the block's PCs.
    pub uops: u64,
    /// Check invocations at the block's PCs.
    pub checks: u64,
    /// Injected check micro-ops at the block's PCs.
    pub check_uops: u64,
}

/// One recovered function's share of the profile. Blocks reachable from
/// two entries are reported under both, so function totals may overlap;
/// the per-block table is the partition.
#[derive(Debug, Clone)]
pub struct FunctionRollup {
    /// Entry PC.
    pub entry: u64,
    /// Display symbol (`main` for the program entry, `fn_<pc>` else).
    pub symbol: String,
    /// Number of blocks the function owns.
    pub blocks: u64,
    /// Cycle/uop/check sums over those blocks.
    pub cycles: u64,
    /// Retired micro-ops over those blocks.
    pub uops: u64,
    /// Check invocations over those blocks.
    pub checks: u64,
    /// Injected check micro-ops over those blocks.
    pub check_uops: u64,
}

/// One (benchmark × scheme) row of the hotspot report.
#[derive(Debug, Clone)]
pub struct HotspotRow {
    /// Row display name.
    pub benchmark: String,
    /// Workload kernel name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Scheme label.
    pub scheme: String,
    /// Committed macro instructions.
    pub insts: u64,
    /// Total committed cycles (== per-block sum, asserted).
    pub cycles: u64,
    /// Total retired micro-ops.
    pub uops: u64,
    /// Total per-PC check invocations.
    pub checks: u64,
    /// Total injected check micro-ops.
    pub check_uops: u64,
    /// Total checks in the site table (includes runtime-internal
    /// validations the per-PC table does not see).
    pub site_checks: u64,
    /// Total check micro-ops in the site table (== `check_uops`,
    /// asserted — runtime-internal checks inject nothing).
    pub site_check_uops: u64,
    /// The backend's own `check_access` count, for reconciliation.
    pub backend_checks: u64,
    /// Per-block partition of the code segment, ascending by start PC.
    pub blocks: Vec<BlockRollup>,
    /// Per-block owning symbol (first claiming function), parallel to
    /// `blocks` — feeds the folded-stack output.
    pub block_symbols: Vec<String>,
    /// Recovered functions with their rollups.
    pub functions: Vec<FunctionRollup>,
    /// Per-allocation-site attribution rows, ascending by site PC.
    pub sites: Vec<(u64, SiteCounters)>,
}

/// The per-allocation-site check totals of a profiled run, `(checks,
/// check micro-ops)`, reconciled with the per-PC profiler and the
/// backend. Check micro-ops match the per-PC total exactly: only
/// pipeline-visible checks inject them. Check *counts* may exceed the
/// per-PC table — the runtime's hardened-free validations charge the
/// owning site but have no checked-access PC. Backend schemes route
/// every access check through the seam, so the site table and the
/// backend's own count must agree. Errors are collection bugs.
pub fn site_check_totals(cell: &str, prof: &GuestProfile) -> Result<(u64, u64), String> {
    let site_checks: u64 = prof.sites.iter().map(|(_, c)| c.checks).sum();
    let site_check_uops: u64 = prof.sites.iter().map(|(_, c)| c.check_uops).sum();
    if site_check_uops != prof.check_uops.total() {
        return Err(format!(
            "{cell}: site check-uop sum {site_check_uops} != per-PC total {}",
            prof.check_uops.total()
        ));
    }
    if prof.checks.total() > site_checks {
        return Err(format!(
            "{cell}: per-PC checks {} exceed site checks {site_checks}",
            prof.checks.total()
        ));
    }
    if prof.backend_checks > 0 && site_checks != prof.backend_checks {
        return Err(format!(
            "{cell}: site checks {site_checks} != backend checks {}",
            prof.backend_checks
        ));
    }
    Ok((site_checks, site_check_uops))
}

/// Rolls one profiled run up into a [`HotspotRow`], re-deriving the CFG
/// from the program the cell's job builds and asserting that
/// every profiled count lands in the code segment and that the site
/// table reconciles with the per-PC profiler and the backend. Errors
/// are collection bugs, not data.
pub fn rollup(
    row: &FigureRow,
    scheme: &str,
    rt: &RtConfig,
    scale: Scale,
    result: &SimResult,
) -> Result<HotspotRow, String> {
    let cell = format!("{} {scheme}", row.name);
    let prof = result
        .profile
        .as_ref()
        .ok_or_else(|| format!("{cell}: result carries no guest profile"))?;
    for (what, other) in [
        ("cycles", prof.cycles.other()),
        ("uops", prof.uops.other()),
        ("checks", prof.checks.other()),
        ("check_uops", prof.check_uops.other()),
    ] {
        if other != 0 {
            return Err(format!(
                "{cell}: {other} {what} landed outside the code segment"
            ));
        }
    }

    let program = SimJob::new(row, scheme, rt.clone(), scale)
        .build()
        .map_err(|e| format!("{cell}: {e}"))?;
    let cfg = Cfg::build(&program);

    let blocks: Vec<BlockRollup> = cfg
        .blocks
        .iter()
        .map(|b| {
            let mut r = BlockRollup {
                start: b.start,
                end: b.end,
                ..BlockRollup::default()
            };
            for pc in b.pcs() {
                r.cycles += prof.cycles.get(pc);
                r.uops += prof.uops.get(pc);
                r.checks += prof.checks.get(pc);
                r.check_uops += prof.check_uops.get(pc);
            }
            r
        })
        .collect();

    // The CFG's blocks partition the code segment and `other` is zero,
    // so the block sums reproduce the row totals (`core.cycles` and the
    // per-PC totals) exactly; `rest_obs::hotspots::validate` checks that
    // before the document is written.

    let mut block_symbols = vec![String::new(); blocks.len()];
    let functions: Vec<FunctionRollup> = cfg
        .functions
        .iter()
        .map(|f| {
            let symbol = if f.entry == program.entry() {
                "main".to_string()
            } else {
                format!("fn_{:#x}", f.entry)
            };
            let mut r = FunctionRollup {
                entry: f.entry,
                symbol: symbol.clone(),
                blocks: f.blocks.len() as u64,
                cycles: 0,
                uops: 0,
                checks: 0,
                check_uops: 0,
            };
            for &bi in &f.blocks {
                let b = &blocks[bi];
                r.cycles += b.cycles;
                r.uops += b.uops;
                r.checks += b.checks;
                r.check_uops += b.check_uops;
                if block_symbols[bi].is_empty() {
                    block_symbols[bi] = symbol.clone();
                }
            }
            r
        })
        .collect();
    for s in &mut block_symbols {
        if s.is_empty() {
            // Blocks no function entry reaches (padding, dead code).
            *s = "_unreached".to_string();
        }
    }

    let (site_checks, site_check_uops) = site_check_totals(&cell, prof)?;

    Ok(HotspotRow {
        benchmark: row.name.to_string(),
        workload: row.workload.name(),
        seed: row.seed,
        scheme: scheme.to_string(),
        insts: result.core.insts,
        cycles: result.core.cycles,
        uops: prof.uops.total(),
        checks: prof.checks.total(),
        check_uops: prof.check_uops.total(),
        site_checks,
        site_check_uops,
        backend_checks: prof.backend_checks,
        blocks,
        block_symbols,
        functions,
        sites: prof.sites.clone(),
    })
}

impl HotspotRow {
    /// The row as a `rest-hotspots/v1` row object.
    pub fn to_json(&self) -> Json {
        let total = Json::obj(vec![
            ("cycles", Json::UInt(self.cycles)),
            ("uops", Json::UInt(self.uops)),
            ("insts", Json::UInt(self.insts)),
            ("checks", Json::UInt(self.checks)),
            ("check_uops", Json::UInt(self.check_uops)),
            ("site_checks", Json::UInt(self.site_checks)),
            ("site_check_uops", Json::UInt(self.site_check_uops)),
            ("backend_checks", Json::UInt(self.backend_checks)),
        ]);
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("start", Json::UInt(b.start)),
                    ("end", Json::UInt(b.end)),
                    ("cycles", Json::UInt(b.cycles)),
                    ("uops", Json::UInt(b.uops)),
                    ("checks", Json::UInt(b.checks)),
                    ("check_uops", Json::UInt(b.check_uops)),
                ])
            })
            .collect();
        let functions = self
            .functions
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("entry", Json::UInt(f.entry)),
                    ("symbol", Json::from(f.symbol.as_str())),
                    ("blocks", Json::UInt(f.blocks)),
                    ("cycles", Json::UInt(f.cycles)),
                    ("uops", Json::UInt(f.uops)),
                    ("checks", Json::UInt(f.checks)),
                    ("check_uops", Json::UInt(f.check_uops)),
                ])
            })
            .collect();
        let sites = self
            .sites
            .iter()
            .map(|&(site, c)| {
                Json::obj(vec![
                    ("site", Json::UInt(site)),
                    ("allocs", Json::UInt(c.allocs)),
                    ("frees", Json::UInt(c.frees)),
                    ("bytes", Json::UInt(c.bytes)),
                    ("checks", Json::UInt(c.checks)),
                    ("check_uops", Json::UInt(c.check_uops)),
                    ("canonicalizations", Json::UInt(c.canonicalizations)),
                    ("deferred_latches", Json::UInt(c.deferred_latches)),
                    ("faults", Json::UInt(c.faults)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("workload", Json::from(self.workload)),
            ("seed", Json::UInt(self.seed)),
            ("scheme", Json::from(self.scheme.as_str())),
            ("total", total),
            ("blocks", Json::Arr(blocks)),
            ("functions", Json::Arr(functions)),
            ("sites", Json::Arr(sites)),
        ])
    }

    /// The hottest block (by cycles), for the text table.
    fn hottest(&self) -> Option<&BlockRollup> {
        self.blocks.iter().max_by_key(|b| b.cycles)
    }
}

/// The assembled campaign report.
#[derive(Debug, Clone)]
pub struct HotspotReport {
    /// Rows in benchmark-major, scheme-minor order.
    pub rows: Vec<HotspotRow>,
}

impl HotspotReport {
    /// The `rows` member of the `rest-hotspots/v1` document.
    pub fn rows_json(&self) -> Json {
        Json::Arr(self.rows.iter().map(HotspotRow::to_json).collect())
    }

    /// Folded-stack text (`benchmark;scheme;function;block count`), one
    /// line per nonzero-cycle block — feed to `flamegraph.pl` or
    /// inferno for a guest-cycle flamegraph.
    pub fn folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for row in &self.rows {
            for (b, symbol) in row.blocks.iter().zip(&row.block_symbols) {
                if b.cycles != 0 {
                    let _ = writeln!(
                        out,
                        "{};{};{};block_{:#x} {}",
                        row.benchmark, row.scheme, symbol, b.start, b.cycles
                    );
                }
            }
        }
        out
    }

    /// Perfetto counter tracks: one track per row, sampling the cycle
    /// and check-uop density across the code segment with the block
    /// start PC as the timestamp — the spatial profile renders as a
    /// value-over-"time" curve.
    pub fn to_perfetto(&self) -> PerfettoTrace {
        let mut trace = PerfettoTrace::new("guest hotspots");
        for row in &self.rows {
            let track = trace.track(&format!("{} {}", row.benchmark, row.scheme));
            for b in &row.blocks {
                trace.counter(
                    track,
                    "density",
                    b.start,
                    vec![
                        ("cycles", Json::UInt(b.cycles)),
                        ("check_uops", Json::UInt(b.check_uops)),
                    ],
                );
            }
        }
        trace
    }

    /// The per-row summary table.
    pub fn text_table(&self) -> Table {
        use Align::{Left, Right};
        let mut table = Table::new([Left, Left, Right, Right, Right, Right, Right]);
        table.row([
            "benchmark",
            "scheme",
            "cycles",
            "checks",
            "site chks",
            "check uops",
            "hottest block",
        ]);
        for row in &self.rows {
            let hottest = row
                .hottest()
                .map(|b| format!("{:#x} ({})", b.start, b.cycles))
                .unwrap_or_else(|| "-".to_string());
            table.row([
                row.benchmark.clone(),
                row.scheme.clone(),
                row.cycles.to_string(),
                row.checks.to_string(),
                row.site_checks.to_string(),
                row.check_uops.to_string(),
                hottest,
            ]);
        }
        table
    }
}

/// Runs the full campaign: 16 benchmark rows × 2 schemes with guest
/// profiling, rolled up and returned as the JSON document, the folded
/// stacks (`hotspots.folded`), and the Perfetto counter tracks
/// (`hotspots.perfetto.json`).
pub fn run_campaign(h: &mut Harness) -> Result<Vec<Artifact>, String> {
    let scale = h.scale;
    let rows = h.filter_rows(crate::figure_rows());
    let columns: Vec<ColumnSpec> = scheme_configs()
        .into_iter()
        .map(|(label, rt)| ColumnSpec::new(label, rt))
        .collect();
    let mut spec = MatrixSpec {
        // The plain scheme is an explicit column; no separate baseline.
        include_plain: false,
        ..MatrixSpec::new(rows.clone(), columns, scale)
    };
    spec.cfg.profile_guest = true;
    let matrix = h.run_matrix(spec);

    let mut report = HotspotReport { rows: Vec::new() };
    for (row, results) in rows.iter().zip(&matrix.rows) {
        for (col, cell) in matrix.columns.iter().zip(&results.cells) {
            let result = cell
                .as_ref()
                .as_ref()
                .map_err(|e| format!("{} {} failed: {e}", row.name, col.label))?;
            let rolled = rollup(row, &col.label, &col.rt, scale, result)
                .map_err(|e| format!("invariant violated: {e}"))?;
            report.rows.push(rolled);
        }
    }
    let text = crate::machine_header(
        "hotspots — guest hotspot profile (per-block cycles, per-site checks)",
        scale,
    ) + &report.text_table().to_string();

    let mut sink = h.sink();
    sink.push("schema", Json::from(rest_obs::hotspots::SCHEMA));
    sink.push(
        "schemes",
        Json::Arr(SCHEMES.iter().map(|&s| Json::from(s)).collect()),
    );
    sink.push("rows", report.rows_json());
    let mut artifacts = sink.artifacts(text)?;
    artifacts.extend([
        Artifact::new("hotspots.folded", report.folded()),
        Artifact::new("hotspots.perfetto.json", report.to_perfetto().render()),
    ]);
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rest_workloads::Workload;

    fn profiled(row: &FigureRow, label: &str, rt: RtConfig) -> SimResult {
        let mut job = SimJob::new(row, label, rt, Scale::Test);
        job.cfg.profile_guest = true;
        assert_eq!(job.cfg.core, rest_cpu::CoreConfig::isca2018());
        job.execute().expect("profiled run completes")
    }

    #[test]
    fn rollup_reconciles_blocks_sites_and_backend() {
        let row = FigureRow::of(Workload::Lbm);
        for (label, rt) in scheme_configs() {
            let result = profiled(&row, label, rt.clone());
            let r = rollup(&row, label, &rt, Scale::Test, &result).expect("invariants hold");
            assert_eq!(
                r.blocks.iter().map(|b| b.cycles).sum::<u64>(),
                result.core.cycles,
                "{label}: block cycles must sum exactly to core.cycles"
            );
            assert_eq!(r.site_check_uops, r.check_uops);
            if label == "rest-secure-full" {
                assert!(
                    r.backend_checks > 0,
                    "REST secure routes checks to the seam"
                );
                assert_eq!(r.site_checks, r.backend_checks);
                assert!(r.checks > 0, "checked accesses land in the per-PC table");
                // REST's headline property: the token check rides the
                // cache fill and injects zero check micro-ops.
                assert_eq!(r.check_uops, 0, "REST charges no check micro-ops");
            } else {
                assert_eq!(r.backend_checks, 0);
                assert_eq!(r.checks, 0);
            }
            assert!(!r.functions.is_empty());
            assert_eq!(r.functions[0].symbol, "main");
            assert_eq!(r.block_symbols.len(), r.blocks.len());
        }
    }

    #[test]
    fn report_document_validates_against_the_schema() {
        // The document the campaign writes, as regen writes it.
        let args = ["hotspots", "--test", "--filter", "hmmer"].map(String::from);
        let mut h = crate::cli::Harness::new(crate::cli::BenchCli::from_args(&args).unwrap());
        h.begin("hotspots", Scale::Test);
        let artifacts = run_campaign(&mut h).expect("campaign runs");
        let text = |file: &str| {
            let a = artifacts.iter().find(|a| a.file == file);
            a.unwrap_or_else(|| panic!("{file} written")).text.clone()
        };
        let doc = Json::parse(&text("hotspots.json")).expect("valid JSON");
        rest_obs::hotspots::validate(&doc).expect("schema-valid");
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), SCHEMES.len());
        // The folded stacks and counter tracks derive from the same
        // rows: one counter per block.
        let folded = text("hotspots.folded");
        assert!(!folded.is_empty());
        assert!(folded
            .lines()
            .all(|l| l.contains(";main;") || l.contains(";fn_")));
        let blocks: usize = rows
            .iter()
            .map(|r| r.get("blocks").and_then(Json::as_arr).unwrap().len())
            .sum();
        let trace = Json::parse(&text("hotspots.perfetto.json")).expect("valid JSON");
        let counters = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .count();
        assert_eq!(counters, blocks);
    }
}
