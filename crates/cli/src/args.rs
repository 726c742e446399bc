//! Minimal subcommand + `--flag value` argument parsing (no external
//! dependency; the workspace's allowed-crate list has no CLI parser).

use crate::CliError;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line: a subcommand plus `--key value` options and bare
/// `--switch` flags.
///
/// Every accessor records the key it was asked for; once a subcommand has
/// read all its keys, [`CliArgs::finish`] rejects whatever else was given,
/// so a typo or a removed flag is an error rather than silently ignored.
#[derive(Debug, Default, Clone)]
pub struct CliArgs {
    /// The subcommand (`build`, `query`, …).
    pub command: String,
    options: HashMap<String, String>,
    switches: Vec<String>,
    asked: RefCell<BTreeSet<String>>,
}

impl CliArgs {
    /// Parses an argv-style slice (without the program name).
    pub fn parse(argv: &[String]) -> Result<CliArgs, CliError> {
        let mut it = argv.iter().peekable();
        let command = it
            .next()
            .filter(|c| !c.starts_with("--"))
            .cloned()
            .ok_or_else(|| CliError("missing subcommand (try `mbi help`)".into()))?;
        let mut options = HashMap::new();
        let mut switches = Vec::new();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument {a:?}")));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => switches.push(key.to_string()),
            }
        }
        Ok(CliArgs { command, options, switches, asked: RefCell::default() })
    }

    /// Records that the subcommand reads `key`.
    fn ask(&self, key: &str) {
        self.asked.borrow_mut().insert(key.to_string());
    }

    /// Fails on the first option or switch (in name order) that no accessor
    /// has asked for. Call it after reading every key and before doing any
    /// work.
    pub fn finish(&self) -> Result<(), CliError> {
        let asked = self.asked.borrow();
        let mut given: Vec<&String> = self.options.keys().chain(&self.switches).collect();
        given.sort();
        match given.into_iter().find(|k| !asked.contains(*k)) {
            Some(k) => Err(CliError(format!(
                "unknown flag --{k} for `mbi {}` (try `mbi help`)",
                self.command
            ))),
            None => Ok(()),
        }
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.ask(key);
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.ask(key);
        self.options.get(key).map(String::as_str)
    }

    /// A typed option with a default; malformed values are an error, not a
    /// silent fallback.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        self.ask(key);
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError(format!("bad value for --{key}: {v:?}"))),
        }
    }

    /// Whether a bare `--switch` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.ask(key);
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_options_switches() {
        let a = CliArgs::parse(&argv("build --input x.fvecs --leaf-size 512 --parallel")).unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.require("input").unwrap(), "x.fvecs");
        assert_eq!(a.get_parsed("leaf-size", 0usize).unwrap(), 512);
        assert!(a.switch("parallel"));
        assert!(!a.switch("quiet"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn missing_subcommand_is_error() {
        assert!(CliArgs::parse(&[]).is_err());
        assert!(CliArgs::parse(&argv("--input x")).is_err());
    }

    #[test]
    fn missing_required_option_is_error() {
        let a = CliArgs::parse(&argv("query")).unwrap();
        assert!(a.require("index").is_err());
    }

    #[test]
    fn malformed_typed_value_is_error() {
        let a = CliArgs::parse(&argv("build --tau abc")).unwrap();
        assert!(a.get_parsed("tau", 0.5f64).is_err());
        let a = CliArgs::parse(&argv("build --tau 0.4")).unwrap();
        assert_eq!(a.get_parsed("tau", 0.5f64).unwrap(), 0.4);
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(CliArgs::parse(&argv("build stray")).is_err());
    }

    #[test]
    fn finish_rejects_unread_options_and_switches() {
        let a = CliArgs::parse(&argv("info --index x.mbi --tree --verbose --color auto")).unwrap();
        a.require("index").unwrap();
        a.switch("tree");
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("--color"), "{err}");
        a.get("color");
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("--verbose"), "{err}");
        a.switch("verbose");
        a.finish().unwrap();
    }
}
