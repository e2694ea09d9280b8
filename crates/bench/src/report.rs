//! The one report schema of the bench bins (kernelbench, profbench,
//! storebench, racebench, parbench).
//!
//! Every `results/BENCH_*.json` is one pretty-printed JSON object: the
//! envelope (the bench's name, the schema version, the checked-out commit,
//! the host's cores, the gs-par pool size and whether it was a smoke run)
//! beside the bin's own sections. Repeated timings go through [`Samples`],
//! so every bin reports a median of N the same way, with its min and max.

use gs_obs::Json;
use std::path::Path;

/// Version of the envelope; a change to what a key means bumps it.
const SCHEMA: u64 = 1;

/// The report as one object: the envelope beside `sections`.
///
/// # Panics
/// Panics if a section reuses an envelope key.
fn envelope(bench: &str, smoke: bool, sections: Vec<(&str, Json)>) -> Json {
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut pairs = vec![
        ("bench", Json::from(bench)),
        ("schema", Json::from(SCHEMA)),
        ("git_rev", Json::from(git_rev())),
        ("host_cores", Json::from(host_cores)),
        ("pool_threads", Json::from(gs_par::max_threads())),
        ("smoke", Json::from(smoke)),
    ];
    for (name, _) in &sections {
        assert!(
            !pairs.iter().any(|(key, _)| key == name),
            "section {name:?} reuses an envelope key"
        );
    }
    pairs.extend(sections);
    Json::obj(pairs)
}

/// Writes the report — the envelope for `bench` and `smoke` beside
/// `sections` — to `path` as pretty JSON, creating the parent directory
/// when it is missing.
///
/// # Panics
/// Panics if a section reuses an envelope key (`bench`, `schema`,
/// `git_rev`, `host_cores`, `pool_threads` or `smoke`).
pub fn write(
    path: impl AsRef<Path>,
    bench: &str,
    smoke: bool,
    sections: Vec<(&str, Json)>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, envelope(bench, smoke, sections).to_pretty_string())
}

/// The checked-out commit, or `"unknown"` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Repeated measurements of one quantity, kept sorted. An empty set reads
/// 0 for every statistic, with `n` 0.
#[derive(Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `samples` (by `f64::total_cmp`).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Samples(samples)
    }

    /// How many samples there are.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    /// The largest sample.
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// The nearest-rank `q`-quantile, `q` in `[0, 1]`: the sample at index
    /// `round((n - 1) * q)` of the sorted set.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[((n - 1) as f64 * q).round() as usize],
        }
    }

    /// [`quantile`](Self::quantile)`(0.5)`: the middle sample, and on an
    /// even count the upper of the two middle ones.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `{"median", "min", "max", "n"}`, in the samples' unit.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("median", self.median().into()),
            ("min", self.min().into()),
            ("max", self.max().into()),
            ("n", self.n().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_report_carries_the_envelope() {
        let report = envelope("testbench", true, vec![("cells", Json::Arr(vec![1.0.into()]))]);
        let Json::Obj(map) = &report else { panic!("not an object: {report}") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["bench", "cells", "git_rev", "host_cores", "pool_threads", "schema", "smoke"]
        );
        assert_eq!(report.get("bench").and_then(Json::as_str), Some("testbench"));
        assert_eq!(report.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        assert!(report.get("git_rev").and_then(Json::as_str).is_some_and(|rev| !rev.is_empty()));
        assert!(report.get("host_cores").and_then(Json::as_u64).is_some_and(|n| n >= 1));
        assert_eq!(
            report.get("pool_threads").and_then(Json::as_u64),
            Some(gs_par::max_threads() as u64)
        );
        assert_eq!(report.get("smoke").and_then(Json::as_bool), Some(true));
    }

    #[test]
    #[should_panic(expected = "reuses an envelope key")]
    fn a_section_may_not_shadow_the_envelope() {
        let _ = envelope("testbench", false, vec![("host_cores", 64.0.into())]);
    }

    #[test]
    fn samples_on_an_odd_count() {
        let s = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n(), s.min(), s.median(), s.max()), (5, 1.0, 3.0, 5.0));
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(0.95), 5.0);
        assert_eq!(s.quantile(0.99), 5.0);
    }

    #[test]
    fn samples_on_an_even_count() {
        let s = Samples::new(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!((s.n(), s.min(), s.median(), s.max()), (4, 10.0, 30.0, 40.0));
        // Index round(3 q): 0.25 -> 1, 0.5 -> 2 (the upper middle), 0.95 -> 3.
        assert_eq!(s.quantile(0.25), 20.0);
        assert_eq!(s.quantile(0.95), 40.0);
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!((s.median(), s.quantile(0.95), s.quantile(0.99)), (51.0, 95.0, 99.0));
    }

    #[test]
    fn samples_serialize_median_of_n_with_range() {
        let json = Samples::new(vec![3.0, 1.0, 2.0]).to_json();
        assert_eq!(json.to_string(), r#"{"max":3,"median":2,"min":1,"n":3}"#);
        let empty = Samples::new(Vec::new());
        assert_eq!((empty.n(), empty.median(), empty.quantile(0.99)), (0, 0.0, 0.0));
    }

    #[test]
    fn write_creates_a_missing_parent_directory() {
        let dir = std::env::temp_dir().join(format!("gs-bench-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("BENCH_test.json");
        write(&path, "testbench", false, vec![("value", 1.5.into())]).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let report = gs_obs::json::parse(&text).expect("parse");
        assert_eq!(report.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(report.get("smoke").and_then(Json::as_bool), Some(false));
        assert!(text.contains('\n'), "pretty-printed: {text}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
