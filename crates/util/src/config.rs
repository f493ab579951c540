//! `key = value` configuration files.
//!
//! The paper references two configuration files: the **broker
//! configuration file** (lists the BDNs a broker advertises to and the
//! dedup-cache size, §2.3/§4) and the **node configuration file** (lists
//! the BDNs that can manage a client's discovery request, §3). This module
//! implements the shared format:
//!
//! ```text
//! # comment
//! cluster.seed = 7
//! node.hub.bdns = gridservicelocator.org, gridservicelocator.com
//! node.hub.realm = 0
//! ```
//!
//! Keys are dotted lowercase identifiers; values are scalars or
//! comma-separated lists. Later assignments override earlier ones.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed configuration: an ordered map of string keys to raw values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    entries: BTreeMap<String, String>,
}

/// Errors produced while parsing or interpreting configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not `key = value` or a comment/blank.
    Syntax { line: usize, text: String },
    /// A value could not be interpreted at the requested type.
    BadValue { key: String, value: String, expected: &'static str },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, text } => {
                write!(f, "config syntax error on line {line}: {text:?}")
            }
            ConfigError::BadValue { key, value, expected } => {
                write!(f, "config key {key:?} has value {value:?}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// An empty configuration.
    pub fn new() -> Config {
        Config::default()
    }

    /// Parses the textual format described in the module docs.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::Syntax { line: i + 1, text: raw.to_string() });
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(ConfigError::Syntax { line: i + 1, text: raw.to_string() });
            }
            entries.insert(key.to_string(), value.trim().to_string());
        }
        Ok(Config { entries })
    }

    /// Sets `key` to `value`, overriding any previous assignment.
    pub fn set(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Integer lookup with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfigError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "an unsigned integer",
            }),
        }
    }

    /// Comma-separated list lookup; absent key yields an empty list.
    pub fn get_list(&self, key: &str) -> Vec<String> {
        match self.get(key) {
            None => Vec::new(),
            Some(v) => v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// Number of keys set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# cluster configuration
cluster.seed = 1000
node.hub.bdns = gridservicelocator.org, gridservicelocator.com,
node.hub.realm = 4

node.hub.role = broker
";

    #[test]
    fn parses_scalars_lists_and_comments() {
        let c = Config::parse(SAMPLE).unwrap();
        assert_eq!(c.get_u64("cluster.seed", 0).unwrap(), 1000);
        assert_eq!(c.get_u64("node.hub.realm", 0).unwrap(), 4);
        assert_eq!(c.get("node.hub.role"), Some("broker"));
        assert_eq!(
            c.get_list("node.hub.bdns"),
            vec!["gridservicelocator.org", "gridservicelocator.com"]
        );
    }

    #[test]
    fn defaults_apply_for_absent_keys() {
        let c = Config::parse("").unwrap();
        assert_eq!(c.get_u64("nope", 7).unwrap(), 7);
        assert!(c.get_list("nope").is_empty());
    }

    #[test]
    fn later_assignment_overrides() {
        let c = Config::parse("a = 1\na = 2\n").unwrap();
        assert_eq!(c.get("a"), Some("2"));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = Config::parse("ok = 1\nbogus line\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }));
        let err = Config::parse("= x\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 1, .. }));
    }

    #[test]
    fn bad_values_are_reported() {
        let c = Config::parse("n = twelve\nm = -1\n").unwrap();
        assert!(matches!(c.get_u64("n", 0), Err(ConfigError::BadValue { .. })));
        assert!(matches!(c.get_u64("m", 0), Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn set_and_display_roundtrip() {
        let mut c = Config::new();
        c.set("x.y", 5).set("z", "hello");
        let reparsed = Config::parse(&c.to_string()).unwrap();
        assert_eq!(c, reparsed);
    }

    #[test]
    fn equals_in_value_is_preserved() {
        let c = Config::parse("k = a=b\n").unwrap();
        assert_eq!(c.get("k"), Some("a=b"));
    }
}
