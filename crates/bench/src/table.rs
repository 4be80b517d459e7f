//! The one text-table layout behind every `.txt` artifact and
//! `bench-diff`'s report.
//!
//! A [`Table`] holds rows of cells the caller has already formatted; a
//! header, when the table has one, is simply its first row. Each column
//! is as wide as its longest cell (counted in chars, so `µop` or `Δ` is
//! one column per char) plus the one space that separates it from the
//! next, and its cells sit left- or right-aligned in it. No line ends
//! in a space: the last column is not padded.

use std::fmt;

/// Where a column's cells sit within its width.
#[derive(Debug, Clone, Copy)]
pub enum Align {
    /// Padded on the right (names, labels, free text).
    Left,
    /// Padded on the left, so values end under their header.
    Right,
}

/// The cell text of a value a failed run did not produce. A row whose
/// run failed reads `failed` in every column after its name
/// ([`Table::failed_row`]).
pub const FAILED: &str = "failed";

/// `value` with `decimals` places, or [`FAILED`] when it is NaN or
/// infinite (an overhead over a run that failed).
pub fn fixed(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        FAILED.to_string()
    }
}

/// Rows of preformatted cells, one alignment per column.
#[derive(Debug)]
pub struct Table {
    align: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with one column per alignment.
    pub fn new(align: impl IntoIterator<Item = Align>) -> Table {
        Table {
            align: align.into_iter().collect(),
            rows: Vec::new(),
        }
    }

    /// A table headed by `header`: a left-aligned name column, then
    /// right-aligned value columns (the per-benchmark grid).
    pub fn named<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let values = std::iter::repeat_n(Align::Right, header.len().saturating_sub(1));
        let mut table = Table::new(std::iter::once(Align::Left).chain(values));
        table.row(header);
        table
    }

    /// Appends one row; it must have one cell per column.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.align.len(), "cells per row: {cells:?}");
        self.rows.push(cells);
    }

    /// Appends the row of a run that failed: `name`, then [`FAILED`] in
    /// every other column.
    pub fn failed_row(&mut self, name: &str) {
        let failed = std::iter::repeat_n(FAILED, self.align.len().saturating_sub(1));
        self.row(std::iter::once(name).chain(failed));
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chars = |cell: &String| cell.chars().count();
        let widths: Vec<usize> = (0..self.align.len())
            .map(|c| self.rows.iter().map(|r| chars(&r[c])).max().unwrap_or(0))
            .collect();
        for row in &self.rows {
            let mut line = String::new();
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    line.push(' ');
                }
                let pad = " ".repeat(widths[c] - chars(cell));
                match self.align[c] {
                    Align::Left => line.extend([cell.as_str(), &pad]),
                    Align::Right => line.extend([pad.as_str(), cell]),
                }
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Align::{Left, Right};

    /// Checks the layout of `table` against its `rows`: every cell is
    /// followed by a space, left-aligned cells of a column start at one
    /// char offset, right-aligned ones end at one, and each line ends
    /// with its last cell. Returns the rendered text.
    fn check_layout(table: &Table, rows: &[Vec<&str>]) -> String {
        let text = table.to_string();
        assert_eq!(text.lines().count(), rows.len(), "{text}");
        let mut edges: Vec<Option<usize>> = vec![None; table.align.len()];
        for (line, row) in text.lines().zip(rows) {
            let chars: Vec<char> = line.chars().collect();
            let mut at = 0;
            for (c, cell) in row.iter().enumerate() {
                while chars.get(at) == Some(&' ') {
                    at += 1;
                }
                let len = cell.chars().count();
                let found: String = chars[at..(at + len).min(chars.len())].iter().collect();
                assert_eq!(&found, cell, "{line:?}");
                let edge = match table.align[c] {
                    Left => at,
                    Right => at + len,
                };
                assert_eq!(
                    *edges[c].get_or_insert(edge),
                    edge,
                    "column {c} misaligned: {line:?}\n{text}"
                );
                at += len;
                if c + 1 < row.len() {
                    assert_eq!(chars.get(at), Some(&' '), "{cell:?} runs on: {line:?}");
                }
            }
            assert_eq!(at, chars.len(), "the last cell ends the line: {line:?}");
        }
        text
    }

    fn table_of(align: &[Align], rows: &[Vec<&str>]) -> Table {
        let mut table = Table::new(align.iter().copied());
        for row in rows {
            table.row(row.iter().copied());
        }
        table
    }

    #[test]
    fn table3_cells_are_separated_and_columns_aligned() {
        let ours = [
            "REST (ours)",
            "Linear",
            "Until realloc",
            "no",
            "yes",
            "Negligible (0.5% meas.)",
            "1 metadata bit per L1-D line, 1 comparator",
        ];
        let rows: Vec<Vec<&str>> = [crate::figures::TABLE3_COLUMNS]
            .into_iter()
            .chain(crate::figures::TABLE3_PRIOR_ROWS)
            .chain([ours])
            .map(Vec::from)
            .collect();
        let text = check_layout(&table_of(&[Left; 7], &rows), &rows);
        // Each column is exactly one space wider than its longest cell.
        assert!(
            text.starts_with("proposal     spatial  temporal      shadow "),
            "{text}"
        );
    }

    #[test]
    fn overhead_values_end_under_their_labels() {
        // Fig. 7's labels and rows: `rest-perfecthw-full` is wider than
        // any value, `gobmk-connect_rot` than `benchmark`.
        let labels: Vec<String> = crate::fig7_configs()
            .iter()
            .map(rest_runtime::RtConfig::label)
            .collect();
        let mut rows: Vec<Vec<&str>> = vec![std::iter::once("benchmark")
            .chain(labels.iter().map(String::as_str))
            .collect()];
        for r in crate::figure_rows() {
            rows.push(std::iter::once(r.name).chain(["-0.07"; 7]).collect());
        }
        rows.push(std::iter::once("GeoMean").chain(["355.82"; 7]).collect());
        let mut table = Table::named(rows[0].iter().copied());
        for row in &rows[1..] {
            table.row(row.iter().copied());
        }
        check_layout(&table, &rows);
    }

    #[test]
    fn a_long_name_stays_clear_of_the_next_column() {
        // The hotspots grid: `gobmk-connect_rot` (17 chars) is longer
        // than its header and than any fixed width the grids used.
        let rows = vec![
            vec!["benchmark", "scheme", "cycles"],
            vec!["bzip2", "plain", "97112"],
            vec!["gobmk-connect_rot", "rest-secure-full", "94460"],
        ];
        let text = check_layout(&table_of(&[Left, Left, Right], &rows), &rows);
        assert!(
            text.contains("gobmk-connect_rot rest-secure-full  94460\n"),
            "{text}"
        );
    }

    #[test]
    fn multibyte_cells_count_one_column_per_char() {
        let rows = vec![
            vec!["§", "µop", "cycles Δ"],
            vec!["§VI-B", "12", "-3"],
            vec!["x", "µop injection", "Δ"],
        ];
        let text = check_layout(&table_of(&[Left, Right, Right], &rows), &rows);
        assert_eq!(text.lines().next(), Some("§               µop cycles Δ"));
    }

    #[test]
    fn a_failed_row_reads_failed_in_every_value_column() {
        let mut table = Table::named(["benchmark", "robblk-sec", "ratio"]);
        table.row(["bzip2", "167765", "5.5"]);
        table.failed_row("gcc");
        table.row(["lbm", fixed(f64::NAN, 1).as_str(), "6.3"]);
        let text = table.to_string();
        let rows = vec![
            vec!["benchmark", "robblk-sec", "ratio"],
            vec!["bzip2", "167765", "5.5"],
            vec!["gcc", FAILED, FAILED],
            vec!["lbm", FAILED, "6.3"],
        ];
        assert_eq!(check_layout(&table, &rows), text);
        assert_eq!(fixed(2.044, 2), "2.04");
        assert_eq!(fixed(f64::INFINITY, 2), FAILED);
    }

    #[test]
    fn no_line_ends_in_a_space() {
        // An empty last cell leaves no separator behind.
        let rows = vec![vec!["attack", "verdict"], vec!["heartbleed-oob-read", ""]];
        let text = table_of(&[Left, Left], &rows).to_string();
        assert_eq!(text, "attack              verdict\nheartbleed-oob-read\n");
    }
}
