//! Tiny dependency-free argument parser: a positional command, an optional
//! positional subcommand, then `--key value` / `--flag` pairs. Every key must
//! be one some command reads: a misspelled option is an error, not a flag.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The positional command (first non-flag token).
    pub command: String,
    /// The positional subcommand (second non-flag token; empty when absent).
    /// The command tree reads this: `clust cluster2`, `dist approx`,
    /// `mr bfs`, `snapshot save`, …
    pub sub: String,
    /// `--key value` options, in declaration order-independent form.
    options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    flags: Vec<String>,
}

/// Argument parsing / validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    MissingCommand,
    MissingValue(String),
    MissingOption(String),
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    UnknownOptions(Vec<String>),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `pardec help`)"),
            ArgError::MissingValue(k) => write!(f, "option --{k} expects a value"),
            ArgError::MissingOption(k) => write!(f, "required option --{k} missing"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
            ArgError::UnknownOptions(ks) => {
                write!(f, "unknown options: {}", ks.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Keys that take a value.
const VALUED_KEYS: &[&str] = &[
    "family",
    "rows",
    "cols",
    "nodes",
    "attach",
    "window",
    "extra-prob",
    "degree",
    "seed",
    "out",
    "graph",
    "tau",
    "algorithm",
    "beta",
    "k",
    "labels",
    "queries",
    "trials",
    "edges",
    "threads",
    "frontier",
    "partitions",
    "source",
    "snapshot",
    "addr",
    "accept-threads",
    "trace",
    "delta",
    "backend",
    "reload-signal",
    "deadline-ms",
    "idle-timeout-ms",
    "read-timeout-ms",
    "max-batch",
    "max-concurrent",
    "max-inflight-mb",
];

/// Keys given bare, as switches.
const FLAGS: &[&str] = &[
    "exact",
    "cluster2",
    "gonzalez",
    "no-oracle",
    "checked",
    "allow-reload",
];

impl Args {
    /// Parses raw tokens (without the binary name). A `--key` in neither
    /// `VALUED_KEYS` nor `FLAGS` is an [`ArgError::UnknownOptions`].
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if VALUED_KEYS.contains(&key) {
                    match it.next() {
                        Some(v) => {
                            out.options.insert(key.to_string(), v);
                        }
                        None => return Err(ArgError::MissingValue(key.to_string())),
                    }
                } else if FLAGS.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    return Err(ArgError::UnknownOptions(vec![tok]));
                }
            } else if out.command.is_empty() {
                out.command = tok;
            } else if out.sub.is_empty() {
                out.sub = tok;
            } else {
                return Err(ArgError::UnknownOptions(vec![tok]));
            }
        }
        if out.command.is_empty() {
            return Err(ArgError::MissingCommand);
        }
        Ok(out)
    }

    /// String option (required).
    pub fn req(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// String option with default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parsed numeric option (required).
    pub fn req_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        let raw = self.req(key)?;
        raw.parse().map_err(|_| ArgError::BadValue {
            key: key.to_string(),
            value: raw.to_string(),
            expected,
        })
    }

    /// Parsed numeric option with default.
    pub fn opt_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The `--frontier` option: frontier expansion strategy for the growth
    /// engine, `None` when unspecified (the strategy then follows
    /// `PARDEC_FRONTIER`, falling back to top-down).
    pub fn frontier(&self) -> Result<Option<pardec_graph::FrontierStrategy>, ArgError> {
        match self.options.get("frontier") {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::BadValue {
                key: "frontier".to_string(),
                value: raw.to_string(),
                expected: "topdown, bottomup, or hybrid",
            }),
        }
    }

    /// The `--partitions` option: shuffle/superstep partition count for the
    /// MR emulation, `None` when unspecified (the count then follows
    /// `PARDEC_PARTITIONS`, falling back to `4 × pool threads`). Partitions
    /// shape scheduling and the communication ledger, never results.
    pub fn partitions(&self) -> Result<Option<usize>, ArgError> {
        match self.options.get("partitions") {
            None => Ok(None),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(ArgError::BadValue {
                    key: "partitions".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer",
                }),
            },
        }
    }

    /// The `--delta` option: bucket width of the weighted frontier engine,
    /// `None` when unspecified (the width then follows `PARDEC_DELTA`,
    /// falling back to the mean-edge-weight heuristic). Delta shapes
    /// wall-clock only — weighted outputs are byte-identical at any width.
    pub fn delta(&self) -> Result<Option<u64>, ArgError> {
        match self.options.get("delta") {
            None => Ok(None),
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(ArgError::BadValue {
                    key: "delta".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer",
                }),
            },
        }
    }

    /// The `--backend` option: adjacency storage backend, `None` when
    /// unspecified (the backend then follows `PARDEC_BACKEND`, falling back
    /// to plain CSR). A memory/wall-clock knob only — outputs are
    /// byte-identical under either backend.
    pub fn backend(&self) -> Result<Option<pardec_graph::Backend>, ArgError> {
        match self.options.get("backend") {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::BadValue {
                key: "backend".to_string(),
                value: raw.to_string(),
                expected: "plain or compressed",
            }),
        }
    }

    /// The `--trace` option: JSONL trace output path, `None` when
    /// unspecified (tracing then follows `PARDEC_TRACE`, falling back to
    /// off). The trace is a side channel — results are byte-identical with
    /// tracing on, off, or absent.
    pub fn trace(&self) -> Option<&str> {
        self.options.get("trace").map(String::as_str)
    }

    /// The `--threads` option: requested worker count for the global pool,
    /// `None` when unspecified (pool size then follows `RAYON_NUM_THREADS`,
    /// falling back to the available parallelism).
    pub fn threads(&self) -> Result<Option<usize>, ArgError> {
        match self.options.get("threads") {
            None => Ok(None),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(ArgError::BadValue {
                    key: "threads".to_string(),
                    value: raw.to_string(),
                    expected: "a positive integer",
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn basic_command() {
        let a = parse("stats --graph g.txt").unwrap();
        assert_eq!(a.command, "stats");
        assert_eq!(a.req("graph").unwrap(), "g.txt");
    }

    #[test]
    fn options_and_flags() {
        let a = parse("dist approx --graph g --tau 8 --exact").unwrap();
        assert_eq!(a.req_parse::<usize>("tau", "int").unwrap(), 8);
        assert!(a.has_flag("exact"));
        assert!(!a.has_flag("weighted-off"));
    }

    #[test]
    fn every_flag_a_command_reads_parses() {
        for flag in [
            "exact",
            "cluster2",
            "gonzalez",
            "no-oracle",
            "checked",
            "allow-reload",
        ] {
            let a = parse(&format!("stats --graph g --{flag}")).unwrap();
            assert!(a.has_flag(flag), "--{flag}");
            assert_eq!(a.req("graph").unwrap(), "g", "--{flag}");
        }
    }

    #[test]
    fn unknown_options_are_errors() {
        assert_eq!(
            parse("dist approx --graph g --exactt").unwrap_err(),
            ArgError::UnknownOptions(vec!["--exactt".into()])
        );
        assert_eq!(
            parse("stats --graph g --scale 3").unwrap_err(),
            ArgError::UnknownOptions(vec!["--scale".into()])
        );
        assert!(parse("serve --snapshot s.pdec --chekced").is_err());
        assert!(parse("snapshot save --graph g --out s.pdec --no-orcale").is_err());
    }

    #[test]
    fn defaults() {
        let a = parse("snapshot save --graph g").unwrap();
        assert_eq!(a.opt("algorithm", "cluster"), "cluster");
        assert_eq!(a.opt_parse::<u64>("seed", 42, "int").unwrap(), 42);
    }

    #[test]
    fn errors() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse("generate --family").unwrap_err(),
            ArgError::MissingValue("family".into())
        );
        let a = parse("clust cluster --tau x").unwrap();
        assert!(matches!(
            a.req_parse::<usize>("tau", "a positive integer"),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(a.req("graph"), Err(ArgError::MissingOption(_))));
        assert!(matches!(
            parse("stats one-extra two-extra"),
            Err(ArgError::UnknownOptions(_))
        ));
    }

    #[test]
    fn subcommand_positional() {
        let a = parse("clust cluster2 --graph g --tau 4").unwrap();
        assert_eq!(a.command, "clust");
        assert_eq!(a.sub, "cluster2");
        assert_eq!(a.req("graph").unwrap(), "g");
        let a = parse("stats --graph g").unwrap();
        assert_eq!(a.sub, "");
        // Options may interleave with the positionals.
        let a = parse("snapshot --graph g save --out s.pdec").unwrap();
        assert_eq!((a.command.as_str(), a.sub.as_str()), ("snapshot", "save"));
    }

    #[test]
    fn threads_option() {
        assert_eq!(parse("stats --graph g").unwrap().threads().unwrap(), None);
        assert_eq!(
            parse("stats --graph g --threads 4").unwrap().threads(),
            Ok(Some(4))
        );
        for bad in ["0", "-2", "many"] {
            let a = parse(&format!("stats --graph g --threads {bad}")).unwrap();
            assert!(
                matches!(a.threads(), Err(ArgError::BadValue { .. })),
                "--threads {bad} should be rejected"
            );
        }
        assert_eq!(
            parse("stats --threads").unwrap_err(),
            ArgError::MissingValue("threads".into())
        );
    }

    #[test]
    fn partitions_option() {
        assert_eq!(
            parse("stats --graph g").unwrap().partitions().unwrap(),
            None
        );
        assert_eq!(
            parse("mr cluster --graph g --partitions 3")
                .unwrap()
                .partitions(),
            Ok(Some(3))
        );
        for bad in ["0", "-1", "lots"] {
            let a = parse(&format!("mr cluster --graph g --partitions {bad}")).unwrap();
            assert!(
                matches!(a.partitions(), Err(ArgError::BadValue { .. })),
                "--partitions {bad} should be rejected"
            );
        }
        assert_eq!(
            parse("mr cluster --partitions").unwrap_err(),
            ArgError::MissingValue("partitions".into())
        );
    }

    #[test]
    fn delta_option() {
        assert_eq!(parse("stats --graph g").unwrap().delta().unwrap(), None);
        assert_eq!(
            parse("clust weighted --graph g --delta 16")
                .unwrap()
                .delta(),
            Ok(Some(16))
        );
        for bad in ["0", "-3", "wide"] {
            let a = parse(&format!("clust weighted --graph g --delta {bad}")).unwrap();
            assert!(
                matches!(a.delta(), Err(ArgError::BadValue { .. })),
                "--delta {bad} should be rejected"
            );
        }
        assert_eq!(
            parse("clust weighted --delta").unwrap_err(),
            ArgError::MissingValue("delta".into())
        );
    }

    #[test]
    fn backend_option() {
        use pardec_graph::Backend;
        assert_eq!(parse("stats --graph g").unwrap().backend().unwrap(), None);
        assert_eq!(
            parse("clust cluster --graph g --backend compressed")
                .unwrap()
                .backend(),
            Ok(Some(Backend::Compressed))
        );
        assert_eq!(
            parse("clust cluster --graph g --backend plain")
                .unwrap()
                .backend(),
            Ok(Some(Backend::Plain))
        );
        let a = parse("clust cluster --graph g --backend zstd").unwrap();
        assert!(matches!(a.backend(), Err(ArgError::BadValue { .. })));
        assert_eq!(
            parse("clust cluster --backend").unwrap_err(),
            ArgError::MissingValue("backend".into())
        );
    }

    #[test]
    fn trace_option() {
        assert_eq!(parse("stats --graph g").unwrap().trace(), None);
        assert_eq!(
            parse("stats --graph g --trace t.jsonl").unwrap().trace(),
            Some("t.jsonl")
        );
        assert_eq!(
            parse("stats --trace").unwrap_err(),
            ArgError::MissingValue("trace".into())
        );
    }

    #[test]
    fn frontier_option() {
        use pardec_graph::FrontierStrategy;
        assert_eq!(parse("stats --graph g").unwrap().frontier().unwrap(), None);
        for (raw, want) in [
            ("topdown", FrontierStrategy::TopDown),
            ("bottomup", FrontierStrategy::BottomUp),
            ("hybrid", FrontierStrategy::Hybrid),
        ] {
            assert_eq!(
                parse(&format!("clust cluster --graph g --frontier {raw}"))
                    .unwrap()
                    .frontier(),
                Ok(Some(want)),
                "--frontier {raw}"
            );
        }
        let a = parse("clust cluster --graph g --frontier beamer").unwrap();
        assert!(matches!(a.frontier(), Err(ArgError::BadValue { .. })));
        assert_eq!(
            parse("clust cluster --frontier").unwrap_err(),
            ArgError::MissingValue("frontier".into())
        );
    }

    #[test]
    fn display_messages() {
        assert!(ArgError::MissingOption("graph".into())
            .to_string()
            .contains("--graph"));
        assert!(ArgError::BadValue {
            key: "k".into(),
            value: "zz".into(),
            expected: "int"
        }
        .to_string()
        .contains("expected int"));
    }
}
