//! One data model for every figure: a [`Table`] is a title, named
//! columns and rows of [`Cell`]s, rendered two ways from the same rows —
//! aligned text ([`fmt::Display`]) for the console and [`Table::to_csv`]
//! for the committed `artifacts/csv/` files `repro gate figs` compares.

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
        let label = |i: usize| self.rows.first().is_some_and(|r| matches!(r[i], Cell::Text(_)));
        writeln!(f, "=== {} ===", self.title)?;
        for line in &lines {
            let mut out = String::new();
            for (i, cell) in line.iter().enumerate() {
                let w = width(i);
                out += &if label(i) { format!("  {cell:<w$}") } else { format!("  {cell:>w$}") };
            }
            writeln!(f, "{}", out.trim_end())?;
        }
        Ok(())
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
    #[should_panic(expected = "row width")]
    fn a_short_row_is_refused() {
        Table::new("short", &[("a", 0), ("b", 0)], [row!["x"]]);
    }
}
