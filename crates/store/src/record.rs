//! The one record type the store holds: an extracted sustainability
//! objective with its five detail fields, company/document provenance and
//! detection score (paper §2.4: fields like Baseline and Deadline "allow
//! tracking progress over time").

use gs_core::ExtractedDetails;

/// One record as stored/exported.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectiveRecord {
    /// Company the objective belongs to.
    pub company: String,
    /// Source document.
    pub document: String,
    /// The full objective text (always kept; §2.4 notes it is needed for
    /// complete interpretation).
    pub objective: String,
    /// Extracted Action, if any.
    pub action: Option<String>,
    /// Extracted Amount, if any.
    pub amount: Option<String>,
    /// Extracted Qualifier, if any.
    pub qualifier: Option<String>,
    /// Extracted Baseline, if any.
    pub baseline: Option<String>,
    /// Extracted Deadline, if any.
    pub deadline: Option<String>,
    /// Detection confidence from GoalSpotter.
    pub score: f64,
    /// Stable section id from report ingestion (`gs-ingest`), if the
    /// objective came through the full-report path.
    pub section_id: Option<String>,
    /// Human-readable section path, e.g. `"Report > Climate > Targets"`.
    pub section_path: Option<String>,
    /// Source block kind (`"paragraph"`, `"list_item"`, `"table_cell"`).
    pub block_kind: Option<String>,
    /// Byte range of the sentence in the source report, as `"start..end"`.
    pub source_range: Option<String>,
}

impl ObjectiveRecord {
    /// Builds a record from extraction output.
    pub fn from_details(
        company: &str,
        document: &str,
        objective: &str,
        details: &ExtractedDetails,
        score: f64,
    ) -> Self {
        let field = |k: &str| details.get(k).map(str::to_string);
        ObjectiveRecord {
            company: company.to_string(),
            document: document.to_string(),
            objective: objective.to_string(),
            action: field("Action"),
            amount: field("Amount"),
            qualifier: field("Qualifier"),
            baseline: field("Baseline"),
            deadline: field("Deadline"),
            score,
            ..ObjectiveRecord::default()
        }
    }

    /// Attaches ingestion provenance (section id/path, block kind, source
    /// byte range) to a record built by [`from_details`](Self::from_details).
    pub fn with_provenance(
        mut self,
        section_id: &str,
        section_path: &str,
        block_kind: &str,
        byte_range: (usize, usize),
    ) -> Self {
        self.section_id = Some(section_id.to_string());
        self.section_path = Some(section_path.to_string());
        self.block_kind = Some(block_kind.to_string());
        self.source_range = Some(format!("{}..{}", byte_range.0, byte_range.1));
        self
    }

    /// Number of non-empty detail fields (specificity indicator; the
    /// paper's §5.1 discussion ranks companies by it).
    pub fn completeness(&self) -> usize {
        [&self.action, &self.amount, &self.qualifier, &self.baseline, &self.deadline]
            .iter()
            .filter(|f| f.is_some())
            .count()
    }

    /// The year the deadline field names ("2040", "FY2030", "the end of
    /// 2025"), if any — what the deadline-window monitoring query ranges
    /// over.
    pub fn deadline_year(&self) -> Option<i64> {
        self.deadline.as_deref().and_then(parse_year)
    }
}

/// Parses a 4-digit 19xx/20xx year out of free text, taking the first one
/// not embedded in a longer digit run. Scans bytes, not char boundaries,
/// so multibyte text ("2025–2030", "→2040") is safe.
fn parse_year(text: &str) -> Option<i64> {
    let bytes = text.as_bytes();
    for i in 0..bytes.len().saturating_sub(3) {
        let window = &bytes[i..i + 4];
        if window.iter().all(u8::is_ascii_digit)
            && (window.starts_with(b"19") || window.starts_with(b"20"))
        {
            // Reject when embedded in a longer digit run.
            let before_digit = i > 0 && bytes[i - 1].is_ascii_digit();
            let after_digit = i + 4 < bytes.len() && bytes[i + 4].is_ascii_digit();
            if !before_digit && !after_digit {
                // All-ASCII window, safe to parse as UTF-8.
                return std::str::from_utf8(window).ok()?.parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completeness_counts_fields() {
        let mut details = ExtractedDetails::new();
        details.set("Action", "Reduce");
        details.set("Amount", "20%");
        details.set("Deadline", "2030");
        let r = ObjectiveRecord::from_details("C1", "d", "o", &details, 1.0);
        assert_eq!(r.completeness(), 3); // action, amount, deadline
        assert_eq!(r.deadline_year(), Some(2030));
        let empty = ObjectiveRecord::from_details("C", "d", "o", &ExtractedDetails::new(), 0.0);
        assert_eq!(empty.completeness(), 0);
        assert_eq!(empty.deadline_year(), None);
    }

    #[test]
    fn year_parsing() {
        assert_eq!(parse_year("2040"), Some(2040));
        assert_eq!(parse_year("by the end of 2025"), Some(2025));
        assert_eq!(parse_year("FY2030"), Some(2030));
        assert_eq!(parse_year("20400"), None, "embedded in longer run");
        assert_eq!(parse_year("no year here"), None);
        assert_eq!(parse_year("2140"), None, "implausible century");
    }

    #[test]
    fn year_parsing_corners() {
        // Both centuries; boundaries of the accepted prefixes.
        assert_eq!(parse_year("1999"), Some(1999));
        assert_eq!(parse_year("1899"), None);
        assert_eq!(parse_year("2999"), None, "prefix 29 is not a year century");
        // First plausible match wins in ranges and lists.
        assert_eq!(parse_year("2025-2030"), Some(2025));
        // Too short, empty, digits-only noise.
        assert_eq!(parse_year(""), None);
        assert_eq!(parse_year("203"), None);
        assert_eq!(parse_year("12030"), None, "five-digit run");
        // A rejected embedded run does not hide a later standalone year.
        assert_eq!(parse_year("12030 then 2040"), Some(2040));
    }

    #[test]
    fn year_parsing_survives_multibyte_text() {
        // Byte windows must never split UTF-8 sequences (these used to
        // panic on non-char-boundary slices).
        assert_eq!(parse_year("2025–2030"), Some(2025), "en dash range");
        assert_eq!(parse_year("→2040"), Some(2040));
        assert_eq!(parse_year("année 2035"), Some(2035));
        assert_eq!(parse_year("…→…"), None);
        assert_eq!(parse_year("2030年"), Some(2030));
    }
}
