//! The one table type. An experiment declares each of its tables once, as
//! a list of columns, and the CSV and the fixed-width text are two
//! renderings of that declaration.
//!
//! A column is a CSV spec, a text spec and a cell formatter; an empty spec
//! leaves the column out of that rendering. Both specs borrow `format!`'s
//! syntax after a colon. The CSV spec is `name` (floats shortest-roundtrip)
//! or `name:.6` (fixed decimals). The text spec is `label:>9.3` (right-
//! aligned in 9 characters, 3 decimals) or `label:<18`, and nothing else:
//! a column is separated from the one before it by a single space, or by
//! the separator [`col_after`](Table::col_after) is given (`" | "`).
//! A precision applies to `f64` cells only; any other cell renders whole.
//!
//! A CSV whose rows already carry a tag, like `crash_matrix`'s `uo` and
//! `cell` rows under one header, is a table with [`sections`]: the tag is
//! the first field, and a column added after [`section`]`(tag)` is blank in
//! the other sections' rows and absent from their text.
//!
//! [`sections`]: Table::sections
//! [`section`]: Table::section

use std::any::Any;
use std::fmt::Display;

use rum_core::runner::RumReport;

/// `x`, or 0 when it is not finite: an amplification with nothing to
/// amplify (a window of inserts retrieves no logical bytes).
pub fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// `"9.3"` -> `("9", Some(3))`.
fn precision(spec: &str) -> (&str, Option<usize>) {
    match spec.split_once('.') {
        Some((rest, p)) => (rest, Some(p.parse().expect("a precision is digits"))),
        None => (spec, None),
    }
}

/// A column's place in the text, parsed from its spec.
struct Text {
    label: String,
    /// Replaces `" "` (`""` before the first column).
    sep: Option<String>,
    left: bool,
    width: usize,
    prec: Option<usize>,
}

struct Column<R> {
    /// CSV header field; empty keeps the column out of the CSV.
    name: &'static str,
    csv_prec: Option<usize>,
    text: Option<Text>,
    /// The one section whose rows have this column; `None` for all.
    section: Option<&'static str>,
    cell: CellFn<R>,
}

/// A column's cell of a row, to a precision.
type CellFn<R> = Box<dyn Fn(&R, Option<usize>) -> String>;

/// The tag column's name and a row's tag.
type Tag<R> = (&'static str, fn(&R) -> &'static str);

impl<R> Column<R> {
    fn in_section(&self, tag: Option<&str>) -> bool {
        self.section.is_none() || self.section == tag
    }
}

/// Columns over rows of type `R`; see the module doc.
pub struct Table<R> {
    columns: Vec<Column<R>>,
    tag: Option<Tag<R>>,
    /// The section that the next columns belong to.
    section: Option<&'static str>,
}

impl<R> Default for Table<R> {
    fn default() -> Self {
        Table {
            columns: Vec::new(),
            tag: None,
            section: None,
        }
    }
}

impl<R> Table<R> {
    /// Add a column; see the module doc for the two specs.
    pub fn col<C: Display + 'static>(
        mut self,
        csv: &'static str,
        text: &str,
        cell: impl Fn(&R) -> C + 'static,
    ) -> Self {
        let text = (!text.is_empty()).then(|| {
            let (label, layout) = text.rsplit_once(':').expect("a text spec is label:layout");
            let left = match layout.chars().next() {
                Some('<') => true,
                Some('>') => false,
                _ => panic!("a text spec is label:<width or label:>width, not {text:?}"),
            };
            let (width, prec) = precision(&layout[1..]);
            Text {
                label: label.to_string(),
                sep: None,
                left,
                width: width.parse().expect("a width is digits"),
                prec,
            }
        });
        let (name, csv_prec) = csv
            .split_once(':')
            .map_or((csv, None), |(n, p)| (n, precision(p).1));
        self.columns.push(Column {
            name,
            csv_prec,
            text,
            section: self.section,
            cell: Box::new(move |r, prec| {
                let c = cell(r);
                match (prec, (&c as &dyn Any).downcast_ref::<f64>()) {
                    (Some(p), Some(x)) => format!("{x:.p$}"),
                    _ => c.to_string(),
                }
            }),
        });
        self
    }

    /// [`col`](Self::col), separated in the text from the column before it
    /// by `sep` instead of a single space.
    pub fn col_after<C: Display + 'static>(
        self,
        sep: &str,
        csv: &'static str,
        text: &str,
        cell: impl Fn(&R) -> C + 'static,
    ) -> Self {
        let mut table = self.col(csv, text, cell);
        if let Some(text) = table.columns.last_mut().and_then(|c| c.text.as_mut()) {
            text.sep = Some(sep.into());
        }
        table
    }

    /// Splice in [`RumReport`]'s own columns as one group, after `sep`:
    /// `csv_header`/`csv_row` in the CSV, `table_header`/`table_row` in
    /// the text.
    pub fn report(self, sep: &str, report: impl Fn(&R) -> &RumReport + Copy + 'static) -> Self {
        let text = format!("{}:<0", RumReport::table_header());
        self.col(RumReport::csv_header(), "", move |r| report(r).csv_row())
            .col_after(sep, "", &text, move |r| report(r).table_row())
    }

    /// Tag each row with its section, `tag(row)`, in a first CSV column
    /// called `name`.
    pub fn sections(mut self, name: &'static str, tag: fn(&R) -> &'static str) -> Self {
        self.tag = Some((name, tag));
        self
    }

    /// The columns added from here on belong to the rows tagged `tag` only.
    pub fn section(mut self, tag: &'static str) -> Self {
        self.section = Some(tag);
        self
    }

    /// The CSV: a header line, then one line per row.
    pub fn csv(&self, rows: &[R]) -> String {
        let columns: Vec<&Column<R>> = self.columns.iter().filter(|c| !c.name.is_empty()).collect();
        let mut header: Vec<&str> = self.tag.iter().map(|t| t.0).collect();
        header.extend(columns.iter().map(|c| c.name));
        let mut out = header.join(",") + "\n";
        for row in rows {
            let tag = self.tag.map(|(_, tag)| tag(row));
            let mut fields: Vec<String> = tag.iter().map(|t| t.to_string()).collect();
            fields.extend(columns.iter().map(|c| match c.in_section(tag) {
                true => (c.cell)(row, c.csv_prec),
                false => String::new(),
            }));
            out += &(fields.join(",") + "\n");
        }
        out
    }

    /// The text: a header line, then one line per row. The rows of a table
    /// with sections are all of one section, and the text has its columns.
    pub fn text(&self, rows: &[R]) -> String {
        let tag = self.tag.zip(rows.first()).map(|((_, tag), r)| tag(r));
        let columns: Vec<(&Column<R>, &Text)> = (self.columns.iter().filter(|c| c.in_section(tag)))
            .filter_map(|c| Some((c, c.text.as_ref()?)))
            .collect();
        let line = |field: &dyn Fn(&Column<R>, &Text) -> String| {
            let mut out = String::new();
            for (i, (c, t)) in columns.iter().enumerate() {
                out += t.sep.as_deref().unwrap_or(if i == 0 { "" } else { " " });
                let (s, width) = (field(c, t), t.width);
                out += &match t.left {
                    true => format!("{s:<width$}"),
                    false => format!("{s:>width$}"),
                };
            }
            out + "\n"
        };
        let mut out = line(&|_, t| t.label.clone());
        for row in rows {
            out += &line(&|c, t| (c.cell)(row, t.prec));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_two_section_table_renders_as_one_csv_and_two_texts() {
        // `(section, key, value)`
        let t = Table::<(&'static str, &str, f64)>::default()
            .sections("kind", |r| r.0)
            .col("key", "key:<6", |r| r.1)
            .section("amp")
            .col("amp:.3", "amp:>8.2", |r| r.2)
            .col_after(" | ", "", "amp0:>6.1", |r| finite(r.2))
            .section("count")
            .col("count", "n:>4", |r| r.2 as u64);
        let rows = [
            ("amp", "a", 1.5),
            ("amp", "inf", f64::INFINITY),
            ("count", "b", 7.0),
        ];
        let csv = t.csv(&rows);
        assert_eq!(
            csv,
            "kind,key,amp,count\namp,a,1.500,\namp,inf,inf,\ncount,b,,7\n"
        );
        let text = t.text(&rows[..2]);
        assert_eq!(
            text,
            "key         amp |   amp0\n\
             a          1.50 |    1.5\n\
             inf         inf |    0.0\n"
        );
        assert_eq!(t.text(&rows[2..]), "key       n\nb         7\n");
        for (rendered, sep) in [(&csv, ','), (&text, '|')] {
            let fields: Vec<usize> = rendered.lines().map(|l| l.split(sep).count()).collect();
            assert!(fields.iter().all(|&n| n == fields[0]), "{fields:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a text spec is label:<width or label:>width")]
    fn a_separator_inside_a_spec_is_refused() {
        let _ = Table::<u64>::default().col("", "point: | >10", |r| *r);
    }

    #[test]
    fn a_precision_applies_to_floats_only() {
        let t = Table::<(&'static str, f64, u64)>::default()
            .col("name:.2", "name:<8.2", |r| r.0)
            .col("x:.2", "x:>6.1", |r| r.1)
            .col("n:.2", "n:>4.1", |r| r.2);
        let rows = [("tiering", 1.0 / 3.0, 7)];
        assert_eq!(t.csv(&rows), "name,x,n\ntiering,0.33,7\n");
        assert_eq!(
            t.text(&rows),
            "name          x    n\ntiering     0.3    7\n"
        );
    }
}
