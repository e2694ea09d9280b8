//! Observability wiring shared by the harness binaries.
//!
//! Every binary that wants machine-readable telemetry calls [`init`] at the
//! top of `main` and [`finish`] at the end. `init` installs a global
//! `gs-obs` collector; with `--obs-jsonl PATH` the collector additionally
//! streams every event as one JSON object per line to `PATH`. `finish`
//! uninstalls the collector (flushing sinks) and, unless `--no-obs-report`
//! was passed, prints the human-readable end-of-run metrics report.

use gs_obs::{Collector, JsonlSink};
use std::sync::Arc;

use crate::Args;

/// The flags [`init`] and [`finish`] read, for binaries that check their
/// command line with [`Args::check_known`].
pub const FLAGS: &[&str] = &["obs-jsonl", "no-obs", "no-obs-report", "sanitize"];

/// Installs the global collector for a harness run.
///
/// Recognised flags:
/// - `--obs-jsonl PATH`: stream all events to `PATH` as JSON Lines.
/// - `--no-obs`: leave telemetry disabled entirely (near-zero overhead).
/// - `--sanitize`: enable the gs-tensor numeric sanitizer — every tape
///   created after this point scans op outputs (and gradients during
///   backward) for NaN/Inf and the trainers abort on the first issue with
///   full provenance. Off by default: disabled cost is one branch per op.
pub fn init(args: &Args) -> Option<Arc<Collector>> {
    if args.has("sanitize") {
        gs_tensor::set_sanitize(true);
    }
    if args.has("no-obs") {
        return None;
    }
    let mut collector = Collector::new();
    if let Some(path) = args.get("obs-jsonl") {
        match JsonlSink::create(path) {
            Ok(sink) => collector.add_sink(Box::new(sink)),
            Err(err) => eprintln!("warning: cannot open --obs-jsonl {path:?}: {err}"),
        }
    }
    Some(gs_obs::install(collector))
}

/// Flushes sinks, uninstalls the collector, and prints the metrics report.
pub fn finish(args: &Args) {
    let Some(collector) = gs_obs::uninstall() else { return };
    if !args.has("no-obs-report") {
        print!("{}", collector.report());
    }
}
