//! Strict command-line flag parsing shared by the CLIs.
//!
//! Every subcommand declares the flags it accepts up front; anything
//! else — an unknown flag, a stray positional word, a valued flag with
//! no value, a number that does not parse — is a [`WaslaError::Usage`]
//! (exit code 2) instead of being silently ignored or replaced by a
//! default.

use crate::error::WaslaError;
use std::str::FromStr;

/// The flags of one command line, checked against the subcommand's
/// declared flag set.
#[derive(Clone, Debug, Default)]
pub struct Flags<'a> {
    /// `(flag, value)` in command-line order; switches carry `None`.
    entries: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Parses `args` for the subcommand `command`. `valued` and
    /// `switches` are whitespace-separated flag lists: each valued
    /// flag consumes the next argument as its value, each switch
    /// stands alone, and every other argument is a usage error.
    pub fn parse(
        args: &'a [String],
        command: &str,
        valued: &str,
        switches: &str,
    ) -> Result<Flags<'a>, WaslaError> {
        let declared = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        let mut entries = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if declared(switches, flag) {
                entries.push((flag, None));
                i += 1;
            } else if declared(valued, flag) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| WaslaError::Usage(format!("{flag} requires a value")))?;
                entries.push((flag, Some(value.as_str())));
                i += 2;
            } else {
                return Err(WaslaError::Usage(format!(
                    "unknown {command} argument {flag:?}"
                )));
            }
        }
        Ok(Flags { entries })
    }

    /// The value of the last occurrence of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).pop()
    }

    /// Every value of a repeatable flag, in command-line order.
    pub fn values(&self, name: &str) -> Vec<&'a str> {
        self.entries
            .iter()
            .filter(|(flag, _)| *flag == name)
            .filter_map(|(_, value)| *value)
            .collect()
    }

    /// Whether the switch (or valued flag) `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of a mandatory flag.
    pub fn require(&self, name: &str) -> Result<&'a str, WaslaError> {
        self.value(name)
            .ok_or_else(|| WaslaError::Usage(format!("missing required {name}")))
    }

    /// The parsed value of `name`, if given; a malformed value is a
    /// usage error, never a silent default.
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, WaslaError> {
        self.value(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| WaslaError::Usage(format!("{name}: malformed value {raw:?}")))
            })
            .transpose()
    }

    /// Overwrites `slot` with the parsed value of `name`, if given.
    pub fn number_into<T: FromStr>(&self, name: &str, slot: &mut T) -> Result<(), WaslaError> {
        if let Some(v) = self.number(name)? {
            *slot = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn declared_flags_parse_in_order() {
        let args = argv("--pin a=0 --regular --pin b=1 --scale 0.5");
        let f = Flags::parse(&args, "advise", "--pin --scale", "--regular").unwrap();
        assert_eq!(f.values("--pin"), vec!["a=0", "b=1"]);
        assert!(f.has("--regular") && !f.has("--json"));
        assert_eq!(f.number::<f64>("--scale").unwrap(), Some(0.5));
        assert_eq!(f.number::<f64>("--alpha").unwrap(), None);
        assert!(f.require("--out").is_err());
    }

    #[test]
    fn unknown_missing_and_malformed_are_usage_errors() {
        for bad in ["--grad fd", "stray", "--scale"] {
            let err = Flags::parse(&argv(bad), "demo", "--scale", "").unwrap_err();
            assert!(matches!(err, WaslaError::Usage(_)), "{bad}: {err}");
            assert_eq!(err.exit_code(), 2);
        }
        let args = argv("--scale abc");
        let f = Flags::parse(&args, "demo", "--scale", "").unwrap();
        let err = f.number::<f64>("--scale").unwrap_err();
        assert!(matches!(err, WaslaError::Usage(_)), "{err}");
    }
}
