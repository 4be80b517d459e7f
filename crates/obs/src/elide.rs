//! `rest-elide/v1` artifact validation.
//!
//! An elision map is a *load-bearing* artifact: the emulator skips
//! memory-safety checks at every PC it lists, so a malformed or
//! internally inconsistent document is a security bug, not a cosmetic
//! one. This module validates a parsed document against the schema that
//! `rest-verify` emits. The result sink checks every map the elision
//! campaign embeds before it writes the document, and the
//! committed-artifact test re-checks `results/elision.json`.
//!
//! A valid `rest-elide/v1` document is an object with exactly these
//! fields, in order:
//!
//! | field              | type   | constraint                                  |
//! |--------------------|--------|---------------------------------------------|
//! | `schema`           | string | `"rest-elide/v1"`                           |
//! | `program`          | string | non-empty                                   |
//! | `scheme`           | string | `"rest"` or `"asan"`                        |
//! | `preconditions_ok` | bool   | `false` forces `elided == 0`                |
//! | `access_pcs`       | uint   | `== elided + may_fault`                     |
//! | `elided`           | uint   | `== must_be_safe + redundant == #entries`   |
//! | `must_be_safe`     | uint   |                                             |
//! | `redundant`        | uint   |                                             |
//! | `may_fault`        | uint   |                                             |
//! | `entries`          | array  | `{pc, class}` sorted strictly by `pc`       |
//!
//! Entry `class` values are `"must-be-safe"` or `"redundant"`, and the
//! per-class entry tallies must equal the header counts.

use crate::json::Json;

/// Schema identifier the validator accepts.
pub const ELIDE_SCHEMA: &str = "rest-elide/v1";

/// Validates a parsed `rest-elide/v1` document. Returns a description
/// of the first violation found.
pub fn validate_elide(doc: &Json) -> Result<(), String> {
    let schema = doc.req("schema", Json::as_str)?;
    if schema != ELIDE_SCHEMA {
        return Err(format!("schema is '{schema}', expected '{ELIDE_SCHEMA}'"));
    }
    let program = doc.req("program", Json::as_str)?;
    if program.is_empty() {
        return Err("field 'program' is empty".to_string());
    }
    let scheme = doc.req("scheme", Json::as_str)?;
    if scheme != "rest" && scheme != "asan" {
        return Err(format!("scheme is '{scheme}', expected 'rest' or 'asan'"));
    }
    let preconditions_ok = match doc.req("preconditions_ok", Some)? {
        Json::Bool(b) => *b,
        _ => return Err("field 'preconditions_ok' is not a bool".to_string()),
    };

    let access_pcs = doc.req("access_pcs", Json::as_u64)?;
    let elided = doc.req("elided", Json::as_u64)?;
    let must_be_safe = doc.req("must_be_safe", Json::as_u64)?;
    let redundant = doc.req("redundant", Json::as_u64)?;
    let may_fault = doc.req("may_fault", Json::as_u64)?;

    if !preconditions_ok && elided != 0 {
        return Err(format!(
            "preconditions failed but {elided} checks are elided"
        ));
    }
    if must_be_safe + redundant != elided {
        return Err(format!(
            "must_be_safe ({must_be_safe}) + redundant ({redundant}) != elided ({elided})"
        ));
    }
    if elided + may_fault != access_pcs {
        return Err(format!(
            "elided ({elided}) + may_fault ({may_fault}) != access_pcs ({access_pcs})"
        ));
    }

    let entries = doc.req("entries", Json::as_arr)?;
    if entries.len() as u64 != elided {
        return Err(format!(
            "entries has {} elements, header says {elided}",
            entries.len()
        ));
    }
    let mut prev_pc: Option<u64> = None;
    let mut safe_seen = 0u64;
    let mut redundant_seen = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let pc = e
            .req("pc", Json::as_u64)
            .map_err(|m| format!("entries[{i}]: {m}"))?;
        if let Some(p) = prev_pc {
            if pc <= p {
                return Err(format!(
                    "entries[{i}]: pc {pc:#x} not strictly above predecessor {p:#x}"
                ));
            }
        }
        prev_pc = Some(pc);
        let class = e
            .req("class", Json::as_str)
            .map_err(|m| format!("entries[{i}]: {m}"))?;
        match class {
            "must-be-safe" => safe_seen += 1,
            "redundant" => redundant_seen += 1,
            other => {
                return Err(format!("entries[{i}]: unknown class '{other}'"));
            }
        }
    }
    if safe_seen != must_be_safe || redundant_seen != redundant {
        return Err(format!(
            "entry class tallies ({safe_seen} must-be-safe, {redundant_seen} redundant) \
             disagree with header counts ({must_be_safe}, {redundant})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> Json {
        Json::parse(
            r#"{
              "schema": "rest-elide/v1",
              "program": "bzip2",
              "scheme": "rest",
              "preconditions_ok": true,
              "access_pcs": 5,
              "elided": 3,
              "must_be_safe": 2,
              "redundant": 1,
              "may_fault": 2,
              "entries": [
                {"pc": 65536, "class": "must-be-safe"},
                {"pc": 65544, "class": "redundant"},
                {"pc": 65552, "class": "must-be-safe"}
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn a_consistent_document_validates() {
        assert_eq!(validate_elide(&valid_doc()), Ok(()));
    }

    #[test]
    fn count_mismatches_are_rejected() {
        let doc = Json::parse(
            r#"{
              "schema": "rest-elide/v1", "program": "x", "scheme": "rest",
              "preconditions_ok": true,
              "access_pcs": 5, "elided": 2, "must_be_safe": 2, "redundant": 1,
              "may_fault": 2, "entries": []
            }"#,
        )
        .unwrap();
        assert!(validate_elide(&doc).unwrap_err().contains("!= elided"));
    }

    #[test]
    fn unsorted_entries_are_rejected() {
        let doc = Json::parse(
            r#"{
              "schema": "rest-elide/v1", "program": "x", "scheme": "rest",
              "preconditions_ok": true,
              "access_pcs": 2, "elided": 2, "must_be_safe": 2, "redundant": 0,
              "may_fault": 0, "entries": [
                {"pc": 65544, "class": "must-be-safe"},
                {"pc": 65536, "class": "must-be-safe"}
              ]
            }"#,
        )
        .unwrap();
        assert!(validate_elide(&doc)
            .unwrap_err()
            .contains("not strictly above"));
    }

    #[test]
    fn failed_preconditions_require_an_empty_map() {
        let doc = Json::parse(
            r#"{
              "schema": "rest-elide/v1", "program": "x", "scheme": "rest",
              "preconditions_ok": false,
              "access_pcs": 2, "elided": 1, "must_be_safe": 1, "redundant": 0,
              "may_fault": 1, "entries": [{"pc": 65536, "class": "must-be-safe"}]
            }"#,
        )
        .unwrap();
        assert!(validate_elide(&doc)
            .unwrap_err()
            .contains("preconditions failed"));
    }

    #[test]
    fn wrong_schema_and_scheme_are_rejected() {
        let mut bad = valid_doc();
        if let Json::Obj(fields) = &mut bad {
            fields[0].1 = Json::Str("rest-elide/v2".to_string());
        }
        assert!(validate_elide(&bad).unwrap_err().contains("schema"));
        let mut bad = valid_doc();
        if let Json::Obj(fields) = &mut bad {
            fields[2].1 = Json::Str("mte".to_string());
        }
        assert!(validate_elide(&bad).unwrap_err().contains("scheme"));
    }

    #[test]
    fn class_tally_disagreement_is_rejected() {
        let mut bad = valid_doc();
        if let Json::Obj(fields) = &mut bad {
            // Flip must_be_safe/redundant header counts.
            fields[6].1 = Json::UInt(1);
            fields[7].1 = Json::UInt(2);
        }
        assert!(validate_elide(&bad).unwrap_err().contains("tallies"));
    }
}
