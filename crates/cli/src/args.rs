//! Tiny dependency-free argument parsing.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// CLI failures (bad flags, missing values, I/O).
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A flag that requires a value did not get one.
    MissingValue(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// Filesystem trouble.
    Io(std::io::Error),
    /// Content-level trouble (bad ASF file, rejected license, …).
    Content(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => write!(
                f,
                "unknown command {c:?} (try publish, inspect, replay, serve, report, trace, abstract)"
            ),
            CliError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            CliError::MissingFlag(flag) => write!(f, "required flag {flag} is missing"),
            CliError::BadValue { flag, value } => {
                write!(f, "cannot parse {value:?} for {flag}")
            }
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Content(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {}

impl CliError {
    /// A [`CliError::BadValue`] for `value` given to `flag`.
    pub fn bad_value(flag: &str, value: &str) -> Self {
        CliError::BadValue {
            flag: flag.into(),
            value: value.into(),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed command line: a subcommand, positional arguments, and
/// `--flag value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name). A `--flag` followed by
    /// another `--token` (or by the end of the line) is a boolean
    /// switch: it gets the value `"on"` rather than swallowing its
    /// neighbour (`serve --standby --checkpoint-every 10` keeps both).
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        if let Some(cmd) = it.next() {
            out.command = cmd.clone();
        }
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().cloned().expect("peeked"),
                    _ => "on".to_string(),
                };
                out.flags.insert(name.to_string(), value);
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// Raw string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Boolean switch: present (with no value, or `on`/`true`/`1`) =
    /// true, absent (or `off`/`false`/`0`) = false.
    pub fn switch(&self, name: &str) -> bool {
        matches!(self.flag(name), Some("on" | "true" | "1"))
    }

    /// `--NAME on|off` (also `true|false`, `yes|no`; default off).
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] for any other value.
    pub fn on_off(&self, name: &str) -> Result<bool, CliError> {
        match self.flag_or(name, "off").as_str() {
            "on" | "true" | "yes" => Ok(true),
            "off" | "false" | "no" => Ok(false),
            other => Err(CliError::bad_value(&format!("--{name}"), other)),
        }
    }

    /// String flag with a default.
    pub fn flag_or(&self, name: &str, default: &str) -> String {
        self.flag(name).unwrap_or(default).to_string()
    }

    /// Parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] when present but unparsable.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::bad_value(&format!("--{name}"), v)),
        }
    }

    /// Required positional argument by index.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingFlag`] (named for the message) when absent.
    pub fn positional(&self, index: usize, what: &'static str) -> Result<&str, CliError> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or(CliError::MissingFlag(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_flags_and_positionals() {
        let a = Args::parse(&argv("publish file.asf --duration-secs 120 --slides 6")).unwrap();
        assert_eq!(a.command, "publish");
        assert_eq!(a.positional, ["file.asf"]);
        assert_eq!(a.flag("duration-secs"), Some("120"));
        assert_eq!(a.num_or("slides", 0u32).unwrap(), 6);
        assert_eq!(a.num_or("absent", 7u32).unwrap(), 7);
    }

    #[test]
    fn trailing_and_adjacent_flags_are_boolean_switches() {
        // A flag followed by another --token (or the end of the line)
        // must not swallow its neighbour.
        let a = Args::parse(&argv("serve --standby --checkpoint-every 10 --verbose")).unwrap();
        assert!(a.switch("standby"));
        assert_eq!(a.num_or("checkpoint-every", 0u64).unwrap(), 10);
        assert!(a.switch("verbose"));
        assert!(!a.switch("absent"));
        // Explicit off still reads as false.
        let b = Args::parse(&argv("serve --standby off")).unwrap();
        assert!(!b.switch("standby"));
    }

    #[test]
    fn bad_numeric_value_rejected() {
        let a = Args::parse(&argv("serve --students many")).unwrap();
        assert!(matches!(
            a.num_or("students", 1usize),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn empty_argv_is_empty_command() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.command, "");
    }
}
