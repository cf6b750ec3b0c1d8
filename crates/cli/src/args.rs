//! Minimal command-line argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// A parsed command line: subcommand, `--key value` options and `--flag`
/// switches, plus positional arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

/// Switches that take no value.
const FLAG_NAMES: &[&str] = &[
    "detail",
    "preinject",
    "no-checkpoint",
    "class-exec",
    "predict",
    "json",
    "lint",
    "help",
    "resume",
    "watch",
];

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a message for an option missing its value.
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut out = ParsedArgs::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if FLAG_NAMES.contains(&name) {
                out.flags.push(name.to_owned());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?;
                out.options.insert(name.to_owned(), value.clone());
            }
        } else if out.command.is_empty() {
            out.command = arg.clone();
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl ParsedArgs {
    /// Option value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Required option value.
    ///
    /// # Errors
    ///
    /// A usage message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Whether a switch was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses an optional integer with a default.
    ///
    /// # Errors
    ///
    /// A message naming the option on parse failure.
    pub fn int_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key} must be an integer")),
        }
    }

    /// Parses the `--workers` option: defaults to 1, rejects zero and
    /// non-numeric values with a message naming the option.
    ///
    /// # Errors
    ///
    /// A message naming the option and the offending value.
    pub fn workers(&self) -> Result<usize, String> {
        match self.get("workers") {
            None => Ok(1),
            Some(v) => {
                v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("option --workers must be a positive integer (got `{v}`)")
                })
            }
        }
    }

    /// Parses a `start:end` window.
    ///
    /// # Errors
    ///
    /// A message naming the option on bad syntax.
    pub fn window(&self, key: &str, default: (u64, u64)) -> Result<(u64, u64), String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let (a, b) = v
                    .split_once(':')
                    .ok_or_else(|| format!("option --{key} must be START:END"))?;
                let a = a
                    .parse()
                    .map_err(|_| format!("bad window start in --{key}"))?;
                let b = b
                    .parse()
                    .map_err(|_| format!("bad window end in --{key}"))?;
                Ok((a, b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_options_flags() {
        let p = parse(&args(&[
            "setup",
            "--campaign",
            "c1",
            "--detail",
            "--experiments",
            "50",
        ]))
        .unwrap();
        assert_eq!(p.command, "setup");
        assert_eq!(p.get("campaign"), Some("c1"));
        assert!(p.has_flag("detail"));
        assert_eq!(p.int_or("experiments", 0).unwrap(), 50);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&args(&["setup", "--campaign"])).is_err());
    }

    #[test]
    fn positional_after_command() {
        let p = parse(&args(&["sql", "SELECT 1"])).unwrap();
        assert_eq!(p.command, "sql");
        assert_eq!(p.positional, vec!["SELECT 1"]);
    }

    #[test]
    fn window_parsing() {
        let p = parse(&args(&["setup", "--window", "10:200"])).unwrap();
        assert_eq!(p.window("window", (0, 0)).unwrap(), (10, 200));
        let p = parse(&args(&["setup"])).unwrap();
        assert_eq!(p.window("window", (1, 2)).unwrap(), (1, 2));
        let p = parse(&args(&["setup", "--window", "nope"])).unwrap();
        assert!(p.window("window", (0, 0)).is_err());
    }

    #[test]
    fn require_and_int_errors_name_the_option() {
        let p = parse(&args(&["run"])).unwrap();
        assert!(p.require("campaign").unwrap_err().contains("--campaign"));
        let p = parse(&args(&["run", "--experiments", "abc"])).unwrap();
        assert!(p
            .int_or("experiments", 0)
            .unwrap_err()
            .contains("--experiments"));
    }

    #[test]
    fn int_or_uses_default() {
        let p = parse(&args(&["run"])).unwrap();
        assert_eq!(p.int_or("seed", 7).unwrap(), 7);
    }

    #[test]
    fn workers_defaults_to_one() {
        let p = parse(&args(&["run"])).unwrap();
        assert_eq!(p.workers().unwrap(), 1);
        let p = parse(&args(&["run", "--workers", "4"])).unwrap();
        assert_eq!(p.workers().unwrap(), 4);
    }

    #[test]
    fn workers_rejects_zero_and_garbage() {
        let p = parse(&args(&["run", "--workers", "0"])).unwrap();
        let err = p.workers().unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert!(err.contains("`0`"), "{err}");
        let p = parse(&args(&["run", "--workers", "two"])).unwrap();
        let err = p.workers().unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let p = parse(&args(&["run", "--workers", "-3"])).unwrap();
        assert!(p.workers().is_err());
    }
}
