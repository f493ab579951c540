//! One data model for every figure: a [`Table`] is a title, named
//! columns and rows of [`Cell`]s, rendered three ways from the same
//! rows — aligned text ([`fmt::Display`]) for the console,
//! [`Table::to_csv`] for the committed `artifacts/csv/` files and
//! [`Table::to_markdown`] for EXPERIMENTS.md's tables, which
//! [`fill_blocks`] writes between their markers. `repro gate figs`
//! compares the CSVs and EXPERIMENTS.md with what the tree renders.

use std::fmt;

/// One value of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// No value: `-` in text, nothing in CSV.
    Empty,
    /// A count.
    Int(u64),
    /// A measurement.
    Real(f64),
    /// A label.
    Text(String),
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $cell:expr;)*) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $cell
            }
        }
    )*};
}

cell_from! {
    u64 => |v| Cell::Int(v);
    usize => |v| Cell::Int(v as u64);
    f64 => |v| Cell::Real(v);
    &str => |v| Cell::Text(v.to_string());
    String => |v| Cell::Text(v);
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Empty, Into::into)
    }
}

/// A row of cells from values of mixed types: `row![name, 1.5, Some(2usize)]`.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::table::Cell::from($cell)),*]
    };
}

impl Cell {
    /// The value as a number; `NaN` for a label or no value.
    pub fn real(&self) -> f64 {
        match self {
            Cell::Int(v) => *v as f64,
            Cell::Real(v) => *v,
            Cell::Empty | Cell::Text(_) => f64::NAN,
        }
    }

    /// The label; empty for a number or no value.
    pub fn label(&self) -> &str {
        match self {
            Cell::Text(v) => v,
            _ => "",
        }
    }

    /// The full value, as CSV writes it; a label holding a comma or a
    /// quote is quoted.
    fn csv(&self) -> String {
        match self {
            Cell::Empty => String::new(),
            Cell::Int(v) => v.to_string(),
            Cell::Real(v) => v.to_string(),
            Cell::Text(v) if v.contains([',', '"']) => format!("\"{}\"", v.replace('"', "\"\"")),
            Cell::Text(v) => v.clone(),
        }
    }

    /// The value as the text rendering shows it, a real to `decimals`.
    fn text(&self, decimals: usize) -> String {
        match self {
            Cell::Empty => "-".to_string(),
            Cell::Int(v) => v.to_string(),
            Cell::Real(v) => format!("{v:.decimals$}"),
            Cell::Text(v) => v.clone(),
        }
    }
}

/// A figure, table or ablation as data.
#[derive(Debug)]
pub struct Table {
    /// What the table shows, printed above it.
    title: String,
    /// Each column's name (the CSV header) and the decimals its reals
    /// get in text.
    columns: Vec<(&'static str, usize)>,
    /// One cell per column in every row.
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table of `rows` under `columns`.
    ///
    /// # Panics
    /// When a row's width is not the column count.
    pub fn new(
        title: impl Into<String>,
        columns: &[(&'static str, usize)],
        rows: impl IntoIterator<Item = Vec<Cell>>,
    ) -> Table {
        let title = title.into();
        let rows: Vec<Vec<Cell>> = rows.into_iter().collect();
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "{title}: row width");
        }
        Table { title, columns: columns.to_vec(), rows }
    }

    /// The table as CSV: the column names, then one line per row, each
    /// cell at its full value.
    pub fn to_csv(&self) -> String {
        let line = |cells: Vec<String>| cells.join(",") + "\n";
        let header = line(self.columns.iter().map(|(name, _)| name.to_string()).collect());
        let rows = self.rows.iter().map(|row| line(row.iter().map(Cell::csv).collect()));
        std::iter::once(header).chain(rows).collect()
    }

    /// The table as Markdown: the title in italics, a blank line, then a
    /// pipe table of the cells as the text rendering shows them, labels
    /// left-aligned and numbers right-aligned.
    pub fn to_markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let header = line(self.columns.iter().map(|(name, _)| name.to_string()).collect());
        let rule = line((0..self.columns.len()).map(|i| if self.is_label(i) { ":--" } else { "--:" }.into()).collect());
        let body = self.rows.iter().map(|row| {
            line(row.iter().zip(&self.columns).map(|(c, &(_, decimals))| c.text(decimals)).collect())
        });
        let table: String = [header, rule].into_iter().chain(body).collect();
        format!("*{}*\n\n{table}", self.title)
    }

    /// Whether column `i` holds labels, read off the first row.
    fn is_label(&self, i: usize) -> bool {
        self.rows.first().is_some_and(|r| matches!(r[i], Cell::Text(_)))
    }

    /// Column `name`'s cells, top to bottom.
    ///
    /// # Panics
    /// When the table has no such column.
    pub fn column(&self, name: &str) -> Vec<&Cell> {
        let i = self.columns.iter().position(|(n, _)| *n == name);
        let i = i.unwrap_or_else(|| panic!("{}: no column {name}", self.title));
        self.rows.iter().map(|row| &row[i]).collect()
    }
}

/// The title, then the columns aligned: labels left, numbers right.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = self.columns.iter().map(|(name, _)| name.to_string()).collect();
        let body = self.rows.iter().map(|row| {
            row.iter().zip(&self.columns).map(|(c, &(_, decimals))| c.text(decimals)).collect()
        });
        let lines: Vec<Vec<String>> = std::iter::once(header).chain(body).collect();
        let width = |i: usize| lines.iter().map(|l| l[i].chars().count()).max().unwrap_or(0);
        writeln!(f, "=== {} ===", self.title)?;
        for line in &lines {
            let mut out = String::new();
            for (i, cell) in line.iter().enumerate() {
                let w = width(i);
                out += &if self.is_label(i) { format!("  {cell:<w$}") } else { format!("  {cell:>w$}") };
            }
            writeln!(f, "{}", out.trim_end())?;
        }
        Ok(())
    }
}

/// Opens a generated block: the marker line is `<!-- table NAME -->`.
const BLOCK_OPEN: &str = "<!-- table ";
/// Closes the block the last marker opened.
const BLOCK_CLOSE: &str = "<!-- /table -->";

/// `doc` with the lines between each `<!-- table NAME -->` marker line
/// and the next `<!-- /table -->` line replaced by `render(NAME)`; the
/// markers and every other line stay as they are. Fails naming the
/// first block whose table `render` does not know, or that never
/// closes, and a close with no open block.
pub fn fill_blocks(doc: &str, render: impl Fn(&str) -> Option<String>) -> Result<String, String> {
    let mut out = String::new();
    let mut open: Option<&str> = None;
    for (i, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if let Some(name) = trimmed.strip_prefix(BLOCK_OPEN).and_then(|r| r.strip_suffix(" -->")) {
            if let Some(outer) = open {
                return Err(format!("line {}: table {name} opens inside table {outer}", i + 1));
            }
            let table = render(name).ok_or_else(|| format!("line {}: no pinned table {name}", i + 1))?;
            out += line;
            out += "\n";
            out += &table;
            open = Some(name);
        } else if trimmed == BLOCK_CLOSE {
            if open.take().is_none() {
                return Err(format!("line {}: {BLOCK_CLOSE} closes no table", i + 1));
            }
            out += line;
            out += "\n";
        } else if open.is_none() {
            out += line;
            out += "\n";
        }
    }
    match open {
        Some(name) => Err(format!("table {name} never closes")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let rows = [
            row!["star", 282.0878, 0.5765, Some(2usize)],
            row!["un,connected", 0.0, 1.0, None::<usize>],
        ];
        Table::new("sample", &[("kind", 0), ("ms", 1), ("share", 2), ("hops", 0)], rows)
    }

    #[test]
    fn csv_writes_full_values_quotes_commas_and_leaves_empty_cells_empty() {
        let csv = sample().to_csv();
        assert_eq!(csv, "kind,ms,share,hops\nstar,282.0878,0.5765,2\n\"un,connected\",0,1,\n");
    }

    #[test]
    fn text_aligns_labels_left_and_numbers_right() {
        let expected = "=== sample ===\n\
                        \x20 kind             ms  share  hops\n\
                        \x20 star          282.1   0.58     2\n\
                        \x20 un,connected    0.0   1.00     -\n";
        assert_eq!(sample().to_string(), expected);
    }

    #[test]
    fn markdown_renders_the_title_then_cells_as_text_shows_them() {
        let expected = "*sample*\n\n\
                        | kind | ms | share | hops |\n\
                        | :-- | --: | --: | --: |\n\
                        | star | 282.1 | 0.58 | 2 |\n\
                        | un,connected | 0.0 | 1.00 | - |\n";
        assert_eq!(sample().to_markdown(), expected);
    }

    #[test]
    fn blocks_are_filled_between_their_markers_and_nothing_else_moves() {
        let render = |name: &str| (name == "t").then(|| "NEW\n".to_string());
        let doc = "prose 1.0\n<!-- table t -->\nOLD\nOLDER\n<!-- /table -->\nmore\n<!-- table t -->\n<!-- /table -->\n";
        let filled = fill_blocks(doc, render).unwrap();
        assert_eq!(filled, "prose 1.0\n<!-- table t -->\nNEW\n<!-- /table -->\nmore\n<!-- table t -->\nNEW\n<!-- /table -->\n");
        assert_eq!(fill_blocks(&filled, render).unwrap(), filled, "filling is idempotent");
        assert_eq!(fill_blocks("a\nb\n", render).unwrap(), "a\nb\n");
        let err = |doc: &str| fill_blocks(doc, render).unwrap_err();
        assert_eq!(err("x\n<!-- table u -->\n<!-- /table -->\n"), "line 2: no pinned table u");
        assert_eq!(err("<!-- table t -->\nOLD\n"), "table t never closes");
        assert_eq!(err("<!-- /table -->\n"), "line 1: <!-- /table --> closes no table");
        assert_eq!(err("<!-- table t -->\n<!-- table t -->\n"), "line 2: table t opens inside table t");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_short_row_is_refused() {
        Table::new("short", &[("a", 0), ("b", 0)], [row!["x"]]);
    }
}
