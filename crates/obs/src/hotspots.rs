//! `rest-hotspots/v1` — the guest hotspot-profile document schema.
//!
//! The `hotspots` campaign rolls the simulator's dense per-PC
//! cycle/uop/check counters up into per-basic-block and per-function
//! reports (CFG recovery comes from `rest-verify`), plus the
//! per-allocation-site check-attribution table. This module owns the
//! schema identifier and the structural validator; document *assembly*
//! lives in `rest-bench`, which has access to the simulator types.
//!
//! The validator enforces the document's load-bearing invariants, not
//! just its shape:
//!
//! * blocks are sorted by start PC, non-empty, and non-overlapping;
//! * per-block `cycles`/`uops`/`checks`/`check_uops` sum **exactly**
//!   to the row totals (the profiler attributes every committed cycle
//!   to a PC, and the CFG's blocks partition the code segment — any
//!   drift is a collection bug, not rounding);
//! * per-site `checks`/`check_uops` sum exactly to the row's
//!   `site_checks`/`site_check_uops` totals, and sites are sorted;
//! * every row's scheme appears in the document's scheme list.

use crate::json::Json;

/// Schema identifier emitted in (and required of) hotspot documents.
pub const SCHEMA: &str = "rest-hotspots/v1";

/// Required u64 members of a row's `total` object.
pub const TOTAL_KEYS: [&str; 8] = [
    "cycles",
    "uops",
    "insts",
    "checks",
    "check_uops",
    "site_checks",
    "site_check_uops",
    "backend_checks",
];

/// Required u64 members of a block entry.
pub const BLOCK_KEYS: [&str; 6] = ["start", "end", "cycles", "uops", "checks", "check_uops"];

/// Required u64 members of a site entry.
pub const SITE_KEYS: [&str; 9] = [
    "site",
    "allocs",
    "frees",
    "bytes",
    "checks",
    "check_uops",
    "canonicalizations",
    "deferred_latches",
    "faults",
];

/// Checks that a parsed document matches the `rest-hotspots/v1` shape
/// and satisfies the exact-sum invariants documented on the module.
/// The result sink runs it before writing a hotspot document, and the
/// committed-artifact test runs it over `results/hotspots.json`.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unexpected schema {s:?}")),
        None => return Err("missing \"schema\"".to_string()),
    }
    doc.req("scale", Json::as_str)?;
    let schemes = doc.req("schemes", Json::as_arr)?;
    let scheme_names: Vec<&str> = schemes.iter().filter_map(Json::as_str).collect();
    if scheme_names.len() != schemes.len() || scheme_names.is_empty() {
        return Err("\"schemes\" must be a non-empty array of strings".to_string());
    }
    let rows = doc.req("rows", Json::as_arr)?;
    for (i, row) in rows.iter().enumerate() {
        validate_row(row, &scheme_names).map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(())
}

fn validate_row(row: &Json, schemes: &[&str]) -> Result<(), String> {
    let benchmark = row.req("benchmark", Json::as_str)?;
    row.req("workload", Json::as_str)?;
    row.req("seed", Json::as_u64)?;
    let scheme = row.req("scheme", Json::as_str)?;
    if !schemes.contains(&scheme) {
        return Err(format!("{benchmark}: scheme {scheme:?} not in \"schemes\""));
    }

    let total = row.get("total").ok_or("row missing \"total\"")?;
    let mut totals = [0u64; TOTAL_KEYS.len()];
    for (slot, key) in totals.iter_mut().zip(TOTAL_KEYS) {
        *slot = total.req(key, Json::as_u64)?;
    }
    let [cycles, uops, _insts, checks, check_uops, site_checks, site_check_uops, _backend] = totals;

    // Blocks: sorted, non-empty, disjoint, and summing exactly to the
    // row totals.
    let blocks = row.req("blocks", Json::as_arr)?;
    let mut prev_end = 0u64;
    let mut sums = [0u64; 4]; // cycles, uops, checks, check_uops
    for (i, b) in blocks.iter().enumerate() {
        let start = b.req("start", Json::as_u64)?;
        let end = b.req("end", Json::as_u64)?;
        if end <= start {
            return Err(format!(
                "{benchmark}: block {i} is empty ({start:#x}..{end:#x})"
            ));
        }
        if start < prev_end {
            return Err(format!(
                "{benchmark}: block {i} ({start:#x}) overlaps or precedes the previous block"
            ));
        }
        prev_end = end;
        for (slot, key) in sums
            .iter_mut()
            .zip(["cycles", "uops", "checks", "check_uops"])
        {
            *slot += b.req(key, Json::as_u64)?;
        }
    }
    for (sum, (key, want)) in sums.iter().zip([
        ("cycles", cycles),
        ("uops", uops),
        ("checks", checks),
        ("check_uops", check_uops),
    ]) {
        if *sum != want {
            return Err(format!(
                "{benchmark} ({scheme}): block {key} sum {sum} != total {want}"
            ));
        }
    }

    // Functions: structural only — blocks reachable from two entries
    // are reported under both, so function totals may legitimately
    // overlap.
    let functions = row.req("functions", Json::as_arr)?;
    for f in functions {
        f.req("entry", Json::as_u64)?;
        f.req("symbol", Json::as_str)?;
        if f.req("blocks", Json::as_u64)? == 0 {
            return Err(format!("{benchmark}: function with zero blocks"));
        }
        for key in ["cycles", "uops", "checks", "check_uops"] {
            f.req(key, Json::as_u64)?;
        }
    }

    // Sites: sorted by site PC, summing exactly to the site totals.
    let sites = row.req("sites", Json::as_arr)?;
    let mut prev_site = None;
    let (mut s_checks, mut s_uops) = (0u64, 0u64);
    for s in sites {
        let site = s.req("site", Json::as_u64)?;
        if prev_site.is_some_and(|p| site <= p) {
            return Err(format!(
                "{benchmark}: sites not strictly ascending at {site:#x}"
            ));
        }
        prev_site = Some(site);
        for key in SITE_KEYS {
            s.req(key, Json::as_u64)?;
        }
        s_checks += s.req("checks", Json::as_u64)?;
        s_uops += s.req("check_uops", Json::as_u64)?;
    }
    if s_checks != site_checks {
        return Err(format!(
            "{benchmark} ({scheme}): site check sum {s_checks} != total.site_checks {site_checks}"
        ));
    }
    if s_uops != site_check_uops {
        return Err(format!(
            "{benchmark} ({scheme}): site check-uop sum {s_uops} != \
             total.site_check_uops {site_check_uops}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(start: u64, end: u64, cycles: u64, uops: u64, checks: u64, cu: u64) -> Json {
        Json::obj(vec![
            ("start", Json::UInt(start)),
            ("end", Json::UInt(end)),
            ("cycles", Json::UInt(cycles)),
            ("uops", Json::UInt(uops)),
            ("checks", Json::UInt(checks)),
            ("check_uops", Json::UInt(cu)),
        ])
    }

    fn doc() -> Json {
        Json::obj(vec![
            ("schema", Json::from(SCHEMA)),
            ("scale", Json::from("test")),
            (
                "schemes",
                Json::Arr(vec![Json::from("plain"), Json::from("rest-secure-full")]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("benchmark", Json::from("lbm")),
                    ("workload", Json::from("lbm")),
                    ("seed", Json::UInt(0xC0FFEE)),
                    ("scheme", Json::from("rest-secure-full")),
                    (
                        "total",
                        Json::obj(vec![
                            ("cycles", Json::UInt(30)),
                            ("uops", Json::UInt(12)),
                            ("insts", Json::UInt(10)),
                            ("checks", Json::UInt(4)),
                            ("check_uops", Json::UInt(8)),
                            ("site_checks", Json::UInt(5)),
                            ("site_check_uops", Json::UInt(8)),
                            ("backend_checks", Json::UInt(5)),
                        ]),
                    ),
                    (
                        "blocks",
                        Json::Arr(vec![
                            block(0x1_0000, 0x1_0008, 10, 4, 1, 2),
                            block(0x1_0008, 0x1_0010, 20, 8, 3, 6),
                        ]),
                    ),
                    (
                        "functions",
                        Json::Arr(vec![Json::obj(vec![
                            ("entry", Json::UInt(0x1_0000)),
                            ("symbol", Json::from("main")),
                            ("blocks", Json::UInt(2)),
                            ("cycles", Json::UInt(30)),
                            ("uops", Json::UInt(12)),
                            ("checks", Json::UInt(4)),
                            ("check_uops", Json::UInt(8)),
                        ])]),
                    ),
                    (
                        "sites",
                        Json::Arr(vec![
                            Json::obj(vec![
                                ("site", Json::UInt(0)),
                                ("allocs", Json::UInt(0)),
                                ("frees", Json::UInt(0)),
                                ("bytes", Json::UInt(0)),
                                ("checks", Json::UInt(1)),
                                ("check_uops", Json::UInt(0)),
                                ("canonicalizations", Json::UInt(0)),
                                ("deferred_latches", Json::UInt(0)),
                                ("faults", Json::UInt(0)),
                            ]),
                            Json::obj(vec![
                                ("site", Json::UInt(0x1_0004)),
                                ("allocs", Json::UInt(1)),
                                ("frees", Json::UInt(1)),
                                ("bytes", Json::UInt(64)),
                                ("checks", Json::UInt(4)),
                                ("check_uops", Json::UInt(8)),
                                ("canonicalizations", Json::UInt(0)),
                                ("deferred_latches", Json::UInt(0)),
                                ("faults", Json::UInt(0)),
                            ]),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    /// Replaces `key` inside the first row's `total` object.
    fn with_total(mut doc: Json, key: &str, value: u64) -> Json {
        if let Json::Obj(members) = &mut doc {
            if let Some((_, Json::Arr(rows))) = members.iter_mut().find(|(k, _)| k == "rows") {
                if let Json::Obj(row) = &mut rows[0] {
                    if let Some((_, Json::Obj(total))) =
                        row.iter_mut().find(|(k, _)| k == "total")
                    {
                        for (k, v) in total.iter_mut() {
                            if k == key {
                                *v = Json::UInt(value);
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn well_formed_document_validates() {
        validate(&doc()).expect("schema-valid");
    }

    #[test]
    fn block_sum_mismatches_are_rejected() {
        let err = validate(&with_total(doc(), "cycles", 31)).unwrap_err();
        assert!(err.contains("block cycles sum"), "{err}");
        let err = validate(&with_total(doc(), "check_uops", 9)).unwrap_err();
        assert!(err.contains("check_uops sum"), "{err}");
    }

    #[test]
    fn site_sum_mismatches_are_rejected() {
        let err = validate(&with_total(doc(), "site_checks", 6)).unwrap_err();
        assert!(err.contains("site check sum"), "{err}");
        let err = validate(&with_total(doc(), "site_check_uops", 7)).unwrap_err();
        assert!(err.contains("site check-uop sum"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate(&Json::Null).is_err());
        assert!(validate(&Json::obj(vec![("schema", Json::from("other/v9"))])).is_err());
        // A row scheme outside the scheme list.
        let mut d = doc();
        if let Json::Obj(members) = &mut d {
            if let Some((_, Json::Arr(schemes))) =
                members.iter_mut().find(|(k, _)| k == "schemes")
            {
                schemes.pop();
            }
        }
        let err = validate(&d).unwrap_err();
        assert!(err.contains("not in"), "{err}");
    }

    #[test]
    fn unsorted_or_overlapping_blocks_are_rejected() {
        let mut d = doc();
        if let Json::Obj(members) = &mut d {
            if let Some((_, Json::Arr(rows))) = members.iter_mut().find(|(k, _)| k == "rows") {
                if let Json::Obj(row) = &mut rows[0] {
                    if let Some((_, Json::Arr(blocks))) =
                        row.iter_mut().find(|(k, _)| k == "blocks")
                    {
                        blocks.swap(0, 1);
                    }
                }
            }
        }
        let err = validate(&d).unwrap_err();
        assert!(err.contains("overlaps or precedes"), "{err}");
    }
}
