//! Text encoding of store records and log operations.
//!
//! Following the repo's text-serialization discipline (see
//! `gs_tensor::serialize`), everything the store persists is line-oriented,
//! human-inspectable text with bit-exact floating-point round-trips: the
//! detection score is written as the hex of its `f64` bit pattern, so NaNs
//! and signed zeros survive a save/load cycle and recovered state can be
//! compared byte-for-byte against an uninterrupted run.
//!
//! A record is one line of tab-separated fields with `\\`, `\t`, `\n`,
//! `\r` escapes. Optional detail fields carry a one-byte presence marker
//! (`-` absent, `=` present) so "no deadline" and "empty deadline" cannot
//! be confused. A log operation wraps a record with its replay metadata:
//! `u <seq> <version> <record fields…>`.

use crate::hash::Fnv1a64;
use crate::record::ObjectiveRecord;
use gs_obs::json::{write_f64, write_string};

/// Escapes one field for the tab-separated line format.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

/// Reverses [`escape_into`]. Fails on a dangling or unknown escape.
fn unescape(s: &str) -> Result<String, CodecError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return Err(CodecError::BadEscape),
        }
    }
    Ok(out)
}

/// Why a persisted line failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Wrong number of tab-separated fields.
    BadArity,
    /// Dangling or unknown backslash escape.
    BadEscape,
    /// Optional field without a `-`/`=` presence marker.
    BadMarker,
    /// Score field is not 16 hex digits.
    BadScore,
    /// Sequence or version field is not a decimal integer.
    BadMeta,
    /// Unknown operation tag.
    BadOp,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            CodecError::BadArity => "wrong field count",
            CodecError::BadEscape => "bad escape sequence",
            CodecError::BadMarker => "missing option presence marker",
            CodecError::BadScore => "malformed score bits",
            CodecError::BadMeta => "malformed seq/version",
            CodecError::BadOp => "unknown op tag",
        };
        write!(f, "store codec: {what}")
    }
}

impl std::error::Error for CodecError {}

fn opt_into(out: &mut String, field: &Option<String>) {
    match field.as_deref() {
        // Empty extractions carry no information; normalize them to absent
        // so content hashes and equality cannot distinguish `Some("")`.
        None | Some("") => out.push('-'),
        Some(s) => {
            out.push('=');
            escape_into(out, s);
        }
    }
}

fn opt_from(field: &str) -> Result<Option<String>, CodecError> {
    match field.as_bytes().first() {
        Some(b'-') if field.len() == 1 => Ok(None),
        Some(b'=') => Ok(Some(unescape(&field[1..])?)),
        _ => Err(CodecError::BadMarker),
    }
}

/// Number of tab-separated fields in an encoded record (v2, with the four
/// ingestion-provenance fields after the score).
const RECORD_FIELDS: usize = 13;

/// Field count of pre-provenance records; still accepted on decode so logs
/// and saves written before the ingest front-end replay cleanly.
const LEGACY_RECORD_FIELDS: usize = 9;

/// Encodes a record as one line (no trailing newline).
pub fn encode_record(record: &ObjectiveRecord) -> String {
    let mut out = String::with_capacity(96);
    encode_record_into(&mut out, record);
    out
}

fn encode_record_into(out: &mut String, record: &ObjectiveRecord) {
    escape_into(out, &record.company);
    out.push('\t');
    escape_into(out, &record.document);
    out.push('\t');
    escape_into(out, &record.objective);
    for field in
        [&record.action, &record.amount, &record.qualifier, &record.baseline, &record.deadline]
    {
        out.push('\t');
        opt_into(out, field);
    }
    out.push('\t');
    out.push_str(&format!("{:016x}", record.score.to_bits()));
    for field in
        [&record.section_id, &record.section_path, &record.block_kind, &record.source_range]
    {
        out.push('\t');
        opt_into(out, field);
    }
}

/// Decodes one [`encode_record`] line.
pub fn decode_record(line: &str) -> Result<ObjectiveRecord, CodecError> {
    let fields: Vec<&str> = line.split('\t').collect();
    decode_record_fields(&fields)
}

fn decode_record_fields(fields: &[&str]) -> Result<ObjectiveRecord, CodecError> {
    if fields.len() != RECORD_FIELDS && fields.len() != LEGACY_RECORD_FIELDS {
        return Err(CodecError::BadArity);
    }
    let score_bits =
        u64::from_str_radix(fields[8], 16).map_err(|_| CodecError::BadScore).and_then(|bits| {
            if fields[8].len() == 16 {
                Ok(bits)
            } else {
                Err(CodecError::BadScore)
            }
        })?;
    let prov = |i: usize| match fields.get(i) {
        Some(f) => opt_from(f),
        None => Ok(None), // legacy 9-field record: no provenance
    };
    Ok(ObjectiveRecord {
        company: unescape(fields[0])?,
        document: unescape(fields[1])?,
        objective: unescape(fields[2])?,
        action: opt_from(fields[3])?,
        amount: opt_from(fields[4])?,
        qualifier: opt_from(fields[5])?,
        baseline: opt_from(fields[6])?,
        deadline: opt_from(fields[7])?,
        score: f64::from_bits(score_bits),
        section_id: prov(9)?,
        section_path: prov(10)?,
        block_kind: prov(11)?,
        source_range: prov(12)?,
    })
}

/// One replayable log operation. The store currently only logs whole-record
/// upserts (merges are resolved *before* logging, so replay is a blind
/// last-write-wins scan), but the tag byte leaves room for more.
#[derive(Clone, Debug, PartialEq)]
pub enum LogOp {
    /// Upsert of the full (already merged) record under a stable first-insert
    /// sequence number and a monotonically increasing version.
    Upsert {
        /// First-insert order within the shard; stable across merges, so
        /// replay and compaction preserve insertion order.
        seq: u64,
        /// Merge count for this identity, starting at 1.
        version: u32,
        /// The full record as of this operation.
        record: ObjectiveRecord,
    },
}

/// Encodes an operation as one line (no trailing newline).
pub fn encode_op(op: &LogOp) -> String {
    match op {
        LogOp::Upsert { seq, version, record } => encode_upsert(*seq, *version, record),
    }
}

/// [`encode_op`] of an upsert, without building the [`LogOp`] (and so
/// without cloning the record).
pub(crate) fn encode_upsert(seq: u64, version: u32, record: &ObjectiveRecord) -> String {
    let mut out = String::with_capacity(112);
    out.push_str("u\t");
    out.push_str(&seq.to_string());
    out.push('\t');
    out.push_str(&version.to_string());
    out.push('\t');
    encode_record_into(&mut out, record);
    out
}

/// Decodes one [`encode_op`] line.
pub fn decode_op(line: &str) -> Result<LogOp, CodecError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.first() != Some(&"u") {
        return Err(CodecError::BadOp);
    }
    if fields.len() != RECORD_FIELDS + 3 && fields.len() != LEGACY_RECORD_FIELDS + 3 {
        return Err(CodecError::BadArity);
    }
    let seq: u64 = fields[1].parse().map_err(|_| CodecError::BadMeta)?;
    let version: u32 = fields[2].parse().map_err(|_| CodecError::BadMeta)?;
    let record = decode_record_fields(&fields[3..])?;
    Ok(LogOp::Upsert { seq, version, record })
}

/// The upsert identity key: company + objective text. Records of the same
/// objective from different documents/re-runs merge under one key.
pub fn identity_key(company: &str, objective: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(company.as_bytes());
    h.sep();
    h.write(objective.as_bytes());
    h.finish()
}

/// Full-content hash of a record: every field, with the score folded in as
/// raw bits (so a NaN score hashes stably instead of poisoning equality).
pub fn content_hash(record: &ObjectiveRecord) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(record.company.as_bytes());
    h.sep();
    h.write(record.document.as_bytes());
    h.sep();
    h.write(record.objective.as_bytes());
    for field in [
        &record.action,
        &record.amount,
        &record.qualifier,
        &record.baseline,
        &record.deadline,
        &record.section_id,
        &record.section_path,
        &record.block_kind,
        &record.source_range,
    ] {
        h.sep();
        // Normalize Some("") to None, matching the codec.
        if let Some(s) = field.as_deref().filter(|s| !s.is_empty()) {
            h.write(b"=");
            h.write(s.as_bytes());
        } else {
            h.write(b"-");
        }
    }
    h.sep();
    h.write(&record.score.to_bits().to_le_bytes());
    h.finish()
}

fn json_opt_into(out: &mut String, field: &Option<String>) {
    match field {
        None => out.push_str("null"),
        Some(s) => write_string(out, s),
    }
}

/// Renders one record as a JSON object (the shape `export_json` emits).
pub fn record_to_json(record: &ObjectiveRecord) -> String {
    let mut out = String::with_capacity(160);
    write_record_json(&mut out, record);
    out
}

fn write_record_json(out: &mut String, record: &ObjectiveRecord) {
    out.push_str("{\"company\":");
    write_string(out, &record.company);
    out.push_str(",\"document\":");
    write_string(out, &record.document);
    out.push_str(",\"objective\":");
    write_string(out, &record.objective);
    for (name, field) in [
        ("action", &record.action),
        ("amount", &record.amount),
        ("qualifier", &record.qualifier),
        ("baseline", &record.baseline),
        ("deadline", &record.deadline),
        ("section_id", &record.section_id),
        ("section_path", &record.section_path),
        ("block_kind", &record.block_kind),
        ("source_range", &record.source_range),
    ] {
        out.push_str(",\"");
        out.push_str(name);
        out.push_str("\":");
        json_opt_into(out, field);
    }
    out.push_str(",\"score\":");
    // JSON has no NaN/Inf literal; non-finite scores export as null rather
    // than as an unparsable document.
    write_f64(out, record.score);
    out.push('}');
}

/// Renders records as a JSON array with one compact record object per
/// line.
pub fn records_to_json<'a>(records: impl IntoIterator<Item = &'a ObjectiveRecord>) -> String {
    let records = records.into_iter();
    let mut out = String::with_capacity(2 + records.size_hint().0 * 170);
    out.push('[');
    for (i, record) in records.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        write_record_json(&mut out, record);
    }
    if out.len() > 1 {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectiveRecord {
        ObjectiveRecord {
            company: "Acme\tCorp".into(),
            document: "ESG\n2026".into(),
            objective: "Cut emissions by 50% by 2030 \\ net-zero".into(),
            action: Some("Cut".into()),
            amount: Some("50%".into()),
            qualifier: None,
            baseline: Some(String::new()),
            deadline: Some("2030".into()),
            score: 0.875,
            section_id: Some("00deadbeef001234".into()),
            section_path: Some("Report > Climate > Targets".into()),
            block_kind: Some("list_item".into()),
            source_range: Some("120..156".into()),
        }
    }

    #[test]
    fn record_roundtrips_with_escapes() {
        let record = sample();
        let line = encode_record(&record);
        assert!(!line.contains('\n'), "encoded record must be one line");
        let back = decode_record(&line).expect("decode");
        assert_eq!(back.company, record.company);
        assert_eq!(back.document, record.document);
        assert_eq!(back.objective, record.objective);
        // Some("") normalizes to None.
        assert_eq!(back.baseline, None);
        assert_eq!(back.deadline, record.deadline);
        assert_eq!(back.score.to_bits(), record.score.to_bits());
        assert_eq!(back.section_path, record.section_path);
        assert_eq!(back.source_range, record.source_range);
    }

    #[test]
    fn legacy_nine_field_records_decode_with_empty_provenance() {
        // A line written before the ingest front-end existed.
        let legacy = "Acme\tdoc\tCut emissions.\t=Cut\t-\t-\t-\t=2030\t3fec000000000000";
        let record = decode_record(legacy).expect("legacy decode");
        assert_eq!(record.company, "Acme");
        assert_eq!(record.score, 0.875);
        assert_eq!(record.deadline.as_deref(), Some("2030"));
        assert_eq!(record.section_id, None);
        assert_eq!(record.section_path, None);
        assert_eq!(record.block_kind, None);
        assert_eq!(record.source_range, None);
        // Legacy ops replay too.
        let op = format!("u\t4\t2\t{legacy}");
        let LogOp::Upsert { seq, version, record } = decode_op(&op).expect("legacy op");
        assert_eq!((seq, version), (4, 2));
        assert_eq!(record.objective, "Cut emissions.");
        // Re-encoding writes the modern 13-field form.
        assert_eq!(encode_record(&record).split('\t').count(), 13);
    }

    #[test]
    fn nan_and_negative_zero_scores_roundtrip_bit_exactly() {
        for score in [f64::NAN, -0.0, f64::INFINITY, 1.0e-300] {
            let mut record = sample();
            record.score = score;
            let back = decode_record(&encode_record(&record)).expect("decode");
            assert_eq!(back.score.to_bits(), score.to_bits());
        }
    }

    #[test]
    fn op_roundtrips() {
        let op = LogOp::Upsert { seq: 17, version: 3, record: sample() };
        let back = decode_op(&encode_op(&op)).expect("decode op");
        assert_eq!(back, {
            let LogOp::Upsert { seq, version, mut record } = op;
            record.baseline = None; // Some("") normalization
            LogOp::Upsert { seq, version, record }
        });
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "u",
            "u\t1",
            "u\tx\t1\ta\tb\tc\t-\t-\t-\t-\t-\t0000000000000000",
            "u\t1\t1\ta\tb\tc\t-\t-\t-\t-\t-\tzz",
            "u\t1\t1\ta\tb\tc\t?\t-\t-\t-\t-\t0000000000000000",
            "u\t1\t1\ta\tb\tc\t-\t-\t-\t-\t-\t00",
            "u\t1\t1\ta\\x\tb\tc\t-\t-\t-\t-\t-\t0000000000000000",
            "w\t1\t1\ta\tb\tc\t-\t-\t-\t-\t-\t0000000000000000",
        ] {
            assert!(decode_op(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn identity_key_separates_company_from_objective() {
        assert_ne!(identity_key("AB", "C"), identity_key("A", "BC"));
        assert_eq!(identity_key("Acme", "x"), identity_key("Acme", "x"));
    }

    #[test]
    fn content_hash_is_stable_for_nan_scores_and_ignores_empty_some() {
        let mut a = sample();
        a.score = f64::NAN;
        let b = a.clone();
        assert_eq!(content_hash(&a), content_hash(&b));
        a.baseline = None; // was Some("")
        assert_eq!(content_hash(&a), content_hash(&b));
        a.deadline = None;
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn json_rendering_escapes_and_handles_null() {
        let mut record = sample();
        record.score = f64::NAN;
        let json = record_to_json(&record);
        assert!(json.contains("\"company\":\"Acme\\tCorp\""));
        assert!(json.contains("\"qualifier\":null"));
        assert!(json.contains("\"score\":null"));
        let arr = records_to_json(&[]);
        assert_eq!(arr, "[]");
    }
}
