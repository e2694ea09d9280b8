//! Minimal command-line flag parsing for the harness binaries (no external
//! CLI crate needed for `--flag value` / `--switch` style arguments).

use std::collections::HashMap;

/// Parsed `--key value` flags and bare `--switch`es.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses from `std::env::args` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// [`from_env`](Self::from_env) for a binary that refuses typos: exits
    /// with status 2, naming each flag that is neither one of `known` nor
    /// one of the telemetry flags every binary takes ([`crate::obs::FLAGS`]).
    pub fn from_env_checked(bin: &str, known: &[&str]) -> Self {
        let args = Self::from_env();
        if let Err(err) = args.check_known(&[known, crate::obs::FLAGS].concat()) {
            eprintln!("{bin}: {err}");
            std::process::exit(2);
        }
        args
    }

    /// Parses from an iterator of argument strings.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                eprintln!("ignoring positional argument {arg:?}");
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.values.insert(name.to_string(), value);
                }
                _ => out.switches.push(name.to_string()),
            }
        }
        out
    }

    /// Whether a bare switch was passed.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Checks that every flag passed, switch or value, is one of `known`;
    /// the error names each one that is not, so a binary can refuse a
    /// typo instead of silently running without it.
    pub fn check_known(&self, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = (self.values.keys().chain(&self.switches))
            .map(String::as_str)
            .filter(|name| !known.contains(name))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let names: Vec<String> = unknown.iter().map(|name| format!("--{name}")).collect();
        Err(format!("unknown flag(s): {}", names.join(", ")))
    }

    /// A parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| panic!("invalid value for --{name}: {v:?}")),
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args("--runs 5 --quick --scale 0.5");
        assert_eq!(a.get_or("runs", 1usize), 5);
        assert!(a.has("quick"));
        assert_eq!(a.get_or("scale", 1.0f64), 0.5);
        assert!(!a.has("verbose"));
    }

    #[test]
    fn missing_values_use_defaults() {
        let a = args("");
        assert_eq!(a.get_or("runs", 3usize), 3);
    }

    #[test]
    fn check_known_names_every_unknown_switch_and_value() {
        let known = ["store-dir", "no-obs"];
        assert_eq!(args("--store-dir /tmp/s --no-obs").check_known(&known), Ok(()));
        assert_eq!(args("").check_known(&known), Ok(()));
        assert_eq!(
            args("--verbose --store-dr /tmp/s --no-obs").check_known(&known),
            Err("unknown flag(s): --store-dr, --verbose".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn bad_value_panics() {
        let a = args("--runs abc");
        let _ = a.get_or("runs", 1usize);
    }
}
