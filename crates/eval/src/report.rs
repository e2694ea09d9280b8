//! Fixed-width text table rendering for the benchmark harnesses, so each
//! binary can print rows that mirror the paper's tables.

/// A simple text table builder.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a row of string slices.
    pub fn row_strs(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = (0..ncols).map(|i| "-".repeat(widths[i])).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a probability-like value with 2 decimals, as the paper's tables
/// do (e.g. `0.85`).
pub fn fmt2(x: f64) -> String {
    format!("{:.2}", x)
}

/// Formats seconds compactly (`<1s`, `12.3s`, `4m05s`).
pub fn fmt_duration(seconds: f64) -> String {
    if seconds < 1.0 {
        "<1s".to_string()
    } else if seconds < 60.0 {
        format!("{:.1}s", seconds)
    } else {
        let m = (seconds / 60.0).floor() as u64;
        let s = seconds - m as f64 * 60.0;
        format!("{}m{:04.1}s", m, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["Approach", "P", "R"]);
        t.row_strs(&["CRF", "0.64", "0.59"]);
        t.row_strs(&["GoalSpotter", "0.87", "0.83"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{rendered}");
        assert!(rendered.contains("GoalSpotter"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["A", "B"]);
        t.row_strs(&["only one"]);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(0.2), "<1s");
        assert_eq!(fmt_duration(12.34), "12.3s");
        assert_eq!(fmt_duration(65.0), "1m05.0s");
    }

    #[test]
    fn fmt2_rounds() {
        assert_eq!(fmt2(0.851), "0.85");
        assert_eq!(fmt2(0.999), "1.00");
    }
}
