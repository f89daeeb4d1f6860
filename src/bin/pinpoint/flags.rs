//! The shared command-line flag parser.
//!
//! Every subcommand used to hand-roll its own `--threads`/`--cache-dir`/
//! `--no-solve` loop with slightly different error strings; this module
//! is the single implementation. Flags are *extracted* (removed) from
//! the argument vector, so a subcommand parses its own flags from
//! whatever remains and [`reject_unknown`] turns any leftover into a
//! uniform error.
//!
//! Error messages are uniform across subcommands:
//! * `--flag needs a value`
//! * `` invalid --flag value `v` ``
//! * `--threads must be at least 1`
//! * `` unknown flag `--frob` ``

use pinpoint::{Analysis, AnalysisBuilder, DetectConfig, Workspace};

/// The common flags a subcommand may accept; pass the subset to
/// [`CommonFlags::extract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Common {
    /// `--threads N` — analysis worker count (≥ 1).
    Threads,
    /// `--cache-dir DIR` — persistent verdict store directory.
    CacheDir,
    /// `--no-solve` — skip SMT path-condition discharge.
    NoSolve,
    /// `--trace-out FILE` — Chrome trace-event JSON output.
    TraceOut,
    /// `--stats-json FILE` — `pinpoint-stats-v1` document output.
    StatsJson,
}

impl Common {
    fn name(self) -> &'static str {
        match self {
            Common::Threads => "--threads",
            Common::CacheDir => "--cache-dir",
            Common::NoSolve => "--no-solve",
            Common::TraceOut => "--trace-out",
            Common::StatsJson => "--stats-json",
        }
    }
}

/// The parsed common flags (fields stay at their defaults when the
/// subcommand did not allow — or the user did not pass — them).
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--cache-dir DIR`.
    pub cache_dir: Option<String>,
    /// `true` unless `--no-solve` was passed.
    pub no_solve: bool,
    /// `--trace-out FILE`.
    pub trace_out: Option<String>,
    /// `--stats-json FILE`.
    pub stats_json: Option<String>,
}

impl CommonFlags {
    /// Extracts the `allowed` common flags out of `flags`, leaving the
    /// subcommand-specific remainder in place.
    pub fn extract(flags: &mut Vec<String>, allowed: &[Common]) -> Result<CommonFlags, String> {
        let mut out = CommonFlags::default();
        for &flag in allowed {
            match flag {
                Common::Threads => out.threads = take_threads(flags)?,
                Common::CacheDir => out.cache_dir = take_value(flags, flag.name())?,
                Common::NoSolve => out.no_solve = take_switch(flags, flag.name()),
                Common::TraceOut => out.trace_out = take_value(flags, flag.name())?,
                Common::StatsJson => out.stats_json = take_value(flags, flag.name())?,
            }
        }
        Ok(out)
    }

    /// An [`AnalysisBuilder`] configured from the extracted flags
    /// (threads, solver toggle, cache directory, tracing when a trace
    /// output was requested).
    pub fn builder(&self) -> AnalysisBuilder {
        let config = DetectConfig {
            solve: !self.no_solve,
            ..DetectConfig::default()
        };
        let mut b = AnalysisBuilder::new()
            .detect_config(config)
            .trace(self.trace_out.is_some());
        if let Some(n) = self.threads {
            b = b.threads(n);
        }
        if let Some(dir) = &self.cache_dir {
            b = b.cache_dir(dir);
        }
        b
    }

    /// Writes the requested observability artifacts of a finished
    /// session.
    pub fn write_obs(&self, session: &Workspace<&Analysis>) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, session.trace_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        if let Some(path) = &self.stats_json {
            std::fs::write(path, session.stats_json(false))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        Ok(())
    }
}

/// Extracts `name VALUE` from `flags`. Absent → `Ok(None)`; present
/// without a value → the uniform "needs a value" error.
pub fn take_value(flags: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = flags.iter().position(|f| f == name) else {
        return Ok(None);
    };
    if i + 1 >= flags.len() {
        return Err(format!("{name} needs a value"));
    }
    let v = flags.remove(i + 1);
    flags.remove(i);
    Ok(Some(v))
}

/// Extracts `name VALUE` and parses the value, with the uniform
/// "invalid value" error.
pub fn take_parsed<T: std::str::FromStr>(
    flags: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    match take_value(flags, name)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid {name} value `{v}`")),
    }
}

/// Extracts a boolean `name` switch; `true` when present.
pub fn take_switch(flags: &mut Vec<String>, name: &str) -> bool {
    let before = flags.len();
    flags.retain(|f| f != name);
    flags.len() != before
}

/// Extracts `--threads N`, rejecting 0.
pub fn take_threads(flags: &mut Vec<String>) -> Result<Option<usize>, String> {
    match take_parsed::<usize>(flags, "--threads")? {
        Some(0) => Err("--threads must be at least 1".to_string()),
        other => Ok(other),
    }
}

/// Fails on any remaining flag with the uniform "unknown flag" error —
/// call after all expected flags were extracted.
pub fn reject_unknown(flags: &[String]) -> Result<(), String> {
    match flags.first() {
        None => Ok(()),
        Some(f) => Err(format!("unknown flag `{f}`")),
    }
}
