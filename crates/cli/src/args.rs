//! Minimal dependency-free argument parsing for the `tsdtw` binary.
//!
//! Grammar: `tsdtw <command> [--flag value]... [--flag=value]...
//! [--switch]...`. Flags are declared per command; unknown flags are
//! errors with a helpful message. A name declared as *both* a switch
//! and a value flag is optional-valued: bare `--name` is the switch
//! (it never consumes the next token), `--name=value` carries a value.

use std::collections::HashMap;

/// Parsed command line: the command name plus flag key/value pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (already stripped of program name and command)
    /// against the declared value-flags and boolean switches.
    pub fn parse(
        raw: &[String],
        value_flags: &[&str],
        bool_switches: &[&str],
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {tok:?}; all options are --flag value"
                )));
            };
            if let Some((name, value)) = name.split_once('=') {
                if value_flags.contains(&name) {
                    out.flags.insert(name.to_string(), value.to_string());
                    continue;
                }
                return Err(ArgError(if bool_switches.contains(&name) {
                    format!("--{name} is a switch and takes no value")
                } else {
                    format!("unknown option --{name}")
                }));
            }
            if bool_switches.contains(&name) {
                out.switches.push(name.to_string());
            } else if value_flags.contains(&name) {
                let Some(v) = it.next() else {
                    return Err(ArgError(format!("--{name} needs a value")));
                };
                out.flags.insert(name.to_string(), v.clone());
            } else {
                return Err(ArgError(format!(
                    "unknown option --{name}; valid: {}{}",
                    value_flags.join(", --").split_off(0),
                    if bool_switches.is_empty() {
                        String::new()
                    } else {
                        format!(" (switches: --{})", bool_switches.join(", --"))
                    }
                )));
            }
        }
        Ok(out)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// An optional parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| ArgError(format!("--{name} got unparsable value {raw:?}"))),
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = Args::parse(&raw(&["--w", "5", "--verbose"]), &["w"], &["verbose"]).unwrap();
        assert_eq!(a.required("w").unwrap(), "5");
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.get_or::<f64>("w", 0.0).unwrap(), 5.0);
    }

    #[test]
    fn equals_form_and_optional_valued_flags() {
        // --flag=value is equivalent to --flag value.
        let a = Args::parse(&raw(&["--w=5"]), &["w"], &[]).unwrap();
        assert_eq!(a.required("w").unwrap(), "5");
        // Declared as both: bare form is the switch and never eats the
        // next token; = form carries the value.
        let both = Args::parse(
            &raw(&["--explain", "--w", "5"]),
            &["explain", "w"],
            &["explain"],
        )
        .unwrap();
        assert!(both.has("explain"));
        assert!(both.optional("explain").is_none());
        assert_eq!(both.required("w").unwrap(), "5");
        let valued =
            Args::parse(&raw(&["--explain=out.json"]), &["explain"], &["explain"]).unwrap();
        assert_eq!(valued.optional("explain"), Some("out.json"));
        // = on a pure switch or unknown name is an error.
        assert!(Args::parse(&raw(&["--verbose=1"]), &[], &["verbose"]).is_err());
        assert!(Args::parse(&raw(&["--nope=1"]), &["w"], &[]).is_err());
        // An empty value is preserved, not treated as missing.
        let empty = Args::parse(&raw(&["--w="]), &["w"], &[]).unwrap();
        assert_eq!(empty.required("w").unwrap(), "");
    }

    #[test]
    fn rejects_unknown_and_positional() {
        assert!(Args::parse(&raw(&["--nope", "1"]), &["w"], &[]).is_err());
        assert!(Args::parse(&raw(&["stray"]), &["w"], &[]).is_err());
        assert!(Args::parse(&raw(&["--w"]), &["w"], &[]).is_err());
    }

    #[test]
    fn required_and_defaults() {
        let a = Args::parse(&raw(&[]), &["w"], &[]).unwrap();
        assert!(a.required("w").is_err());
        assert_eq!(a.get_or::<usize>("k", 3).unwrap(), 3);
        assert!(a.optional("w").is_none());
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let a = Args::parse(&raw(&["--w", "abc"]), &["w"], &[]).unwrap();
        assert!(a.get_or::<f64>("w", 0.0).is_err());
    }

    /// Names the generated declarations draw from, non-ASCII included.
    const NAMES: [&str; 6] = ["w", "threads", "explain", "k", "ß", "名"];

    /// Token fragments: mostly the grammar's own pieces and numbers.
    const PIECES: [&str; 16] = [
        "--", "--", "=", "w", "threads", "explain", "k", "ß", "名", "0", "17", "-3", "1e309",
        "NaN", "x", " ",
    ];

    /// One command-line token glued from a few fragments, now and then
    /// one of them an arbitrary non-ASCII string.
    fn token() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..PIECES.len() + 2, 0..5).prop_map(|ks| {
            ks.iter()
                .map(|&k| PIECES.get(k).copied().unwrap_or("é\u{0}🦀"))
                .collect()
        })
    }

    fn declared(mask: u8) -> Vec<&'static str> {
        NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, n)| *n)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary token lists against random declarations (a name in
        /// both masks is declared as both kinds): parsing returns `Ok` or
        /// `Err`, an `Ok` holds only declared names, and reading any flag
        /// as a number returns without panicking. Nothing runs a command.
        #[test]
        fn parse_never_panics_and_keeps_only_declared_names(
            tokens in prop::collection::vec(token(), 0..8),
            value_mask in 0u8..64,
            switch_mask in 0u8..64,
        ) {
            let value_flags = declared(value_mask);
            let switches = declared(switch_mask);
            if let Ok(a) = Args::parse(&tokens, &value_flags, &switches) {
                for name in a.flags.keys() {
                    prop_assert!(value_flags.contains(&name.as_str()), "{name:?} in {tokens:?}");
                    let _ = a.get_or::<usize>(name, 0);
                    let _ = a.get_or::<f64>(name, 0.0);
                }
                for name in &a.switches {
                    prop_assert!(switches.contains(&name.as_str()), "{name:?} in {tokens:?}");
                }
            }
        }
    }
}
