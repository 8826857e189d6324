//! The one argv reader. Every subcommand and every `client` / `top`
//! action splits its words here — positionals, switches, value flags —
//! and reads a number with one wording.

use std::str::FromStr;

use crate::{usage_error, CliError};

/// A command line read against the flags its command takes.
pub(crate) struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args`: a word in `switches` is a flag on its own, a word
    /// in `values` takes the next word as its value, any other word
    /// starting with `--` is refused, and the rest are positionals, in
    /// order.
    pub(crate) fn read(
        args: &'a [String],
        switches: &[&str],
        values: &[&str],
    ) -> Result<Self, CliError> {
        let mut read = Args { positional: Vec::new(), flags: Vec::new() };
        let mut words = args.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if switches.contains(&word) {
                read.flags.push((word, None));
            } else if values.contains(&word) {
                let value =
                    words.next().ok_or_else(|| usage_error(format!("{word} needs a value")))?;
                read.flags.push((word, Some(value)));
            } else if word.starts_with("--") {
                return Err(usage_error(format!("unknown option {word:?}")));
            } else {
                read.positional.push(word);
            }
        }
        Ok(read)
    }

    /// The positionals, in order.
    pub(crate) fn positional(&self) -> &[&'a str] {
        &self.positional
    }

    /// The positionals when there are exactly `N`; `usage` otherwise.
    pub(crate) fn exactly<const N: usize>(&self, usage: &str) -> Result<[&'a str; N], CliError> {
        self.positional.as_slice().try_into().map_err(|_| usage_error(usage))
    }

    /// Whether the switch `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == flag)
    }

    /// The value of `flag`, the last one when it was given twice.
    pub(crate) fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|&&(f, _)| f == flag).and_then(|&(_, v)| v)
    }

    /// The value of `flag` as a number.
    pub(crate) fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag).map(|word| number(flag, word)).transpose()
    }
}

/// `word` read as the number `flag` needs.
pub(crate) fn number<T: FromStr>(flag: &str, word: &str) -> Result<T, CliError> {
    word.parse().map_err(|_| usage_error(format!("{flag} needs a number, got {word:?}")))
}
