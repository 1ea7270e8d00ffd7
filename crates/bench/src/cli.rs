//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--paper`            — run the paper's Table 2 problem sizes (slow);
//! * `--custom N[/D]`     — run N/D times the Table 2 problem sizes;
//! * `--workloads a,b,c`  — restrict to a subset of the seven workloads;
//! * `--threads N`        — number of simulation worker threads;
//! * `--csv`              — also print each result as sweep CSV;
//! * `--out FILE`         — also write the results as sweep JSON;
//! * `--record FILE`      — stream one workload's trace to FILE and exit;
//! * `--replay FILE`      — run the experiment on a recorded trace file;
//! * `--help` / `-h`      — print usage and exit.

use std::path::PathBuf;

use crate::presets::{ExperimentScale, SystemSet};
use crate::report;
use crate::sweep::{default_threads, Sweep, SweepResult};

/// Usage text printed by `--help` and appended to flag errors.
pub const USAGE: &str = "\
usage: <binary> [OPTIONS]

options:
  --paper              run the paper's Table 2 problem sizes (much slower);
                       the default is the reduced scale
  --custom N[/D]       run N/D times the Table 2 problem sizes (e.g.
                       `--custom 1/16` is a quick smoke, `--custom 4` the
                       committed golden-covered x4 preset); page cache and
                       thresholds scale along
  --workloads a,b,c    restrict to a comma-separated subset of the seven
                       workloads (barnes, cholesky, fmm, lu, ocean, radix,
                       raytrace)
  --threads N          number of simulation worker threads
  --csv                also print each result as sweep CSV, one row per
                       (workload, system)
  --out FILE           also write the results as sweep JSON to FILE (an
                       array when the binary runs several experiments)
  --record FILE        stream the selected workload's trace to FILE and
                       exit without simulating (needs exactly one
                       --workloads entry)
  --replay FILE        run the experiment on a recorded trace file instead
                       of generating a workload
  -h, --help           print this help and exit";

/// Argument handling of a binary that takes no options: `--help` or `-h`
/// prints `usage` and exits with status 0, and any other argument is
/// named on stderr and exits with status 2.
pub fn no_options(usage: &str) {
    let Some(arg) = std::env::args().nth(1) else {
        return;
    };
    if arg == "--help" || arg == "-h" {
        println!("{usage}");
        std::process::exit(0);
    }
    eprintln!("error: unexpected argument `{arg}` (this binary takes no options; run with --help)");
    std::process::exit(2);
}

/// Why parsing stopped without producing [`Options`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; print [`USAGE`] and exit successfully.
    Help,
    /// A flag was not recognized; the offending flag is named.
    UnknownFlag(String),
    /// A flag's value was missing or malformed.
    BadValue(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => f.write_str(USAGE),
            CliError::UnknownFlag(flag) => {
                write!(
                    f,
                    "unknown flag `{flag}` (run with --help for the flag list)"
                )
            }
            CliError::BadValue(msg) => {
                write!(f, "{msg} (run with --help for the flag list)")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Problem/parameter scale.
    pub scale: ExperimentScale,
    /// Workloads to run.
    pub workloads: Vec<String>,
    /// Worker threads (jobs run concurrently).
    pub threads: usize,
    /// Emit CSV in addition to the formatted table.
    pub csv: bool,
    /// Also write results as JSON to this file.
    pub out: Option<PathBuf>,
    /// Record the selected workload's trace to this file and exit.
    pub record: Option<PathBuf>,
    /// Replay a recorded trace file instead of generating workloads.
    pub replay: Option<PathBuf>,
}

impl Options {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, CliError> {
        let mut opts = Options {
            scale: ExperimentScale::Reduced,
            workloads: splash_workloads::names()
                .into_iter()
                .map(str::to_string)
                .collect(),
            threads: default_threads(),
            csv: false,
            out: None,
            record: None,
            replay: None,
        };
        let mut iter = args.into_iter();
        // A flag's value must not itself look like a flag — catches
        // `--threads --csv` naming the flag instead of misparsing.
        let value_of = |iter: &mut I::IntoIter, flag: &str| -> Result<String, CliError> {
            match iter.next() {
                Some(v) if !v.starts_with('-') => Ok(v),
                _ => Err(CliError::BadValue(format!("flag `{flag}` needs a value"))),
            }
        };
        let mut workloads_selected = false;
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--paper" => opts.scale = ExperimentScale::Paper,
                "--custom" => {
                    // `N` or `N/D`: a custom scale's `xN`/`xN/D` label
                    // without its `x`.
                    let v = value_of(&mut iter, "--custom")?;
                    opts.scale = ExperimentScale::parse(&format!("x{v}")).ok_or_else(|| {
                        CliError::BadValue(format!(
                            "bad value `{v}` for `--custom` (want N or N/D)"
                        ))
                    })?;
                }
                "--csv" => opts.csv = true,
                "--threads" => {
                    let v = value_of(&mut iter, "--threads")?;
                    opts.threads = v.parse().map_err(|_| {
                        CliError::BadValue(format!("bad value `{v}` for `--threads`"))
                    })?;
                }
                "--workloads" => {
                    workloads_selected = true;
                    let v = value_of(&mut iter, "--workloads")?;
                    opts.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
                    for w in &opts.workloads {
                        if splash_workloads::by_name(w).is_none() {
                            return Err(CliError::BadValue(format!(
                                "unknown workload `{w}` for `--workloads`"
                            )));
                        }
                    }
                }
                "--out" => {
                    opts.out = Some(PathBuf::from(value_of(&mut iter, "--out")?));
                }
                "--record" => {
                    opts.record = Some(PathBuf::from(value_of(&mut iter, "--record")?));
                }
                "--replay" => {
                    opts.replay = Some(PathBuf::from(value_of(&mut iter, "--replay")?));
                }
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::UnknownFlag(other.to_string())),
            }
        }
        // A replay file *is* the workload; silently ignoring a --workloads
        // selection (or recording while replaying) would mislead.
        if opts.replay.is_some() && workloads_selected {
            return Err(CliError::BadValue(
                "`--replay` runs the recorded trace and cannot be combined with `--workloads`"
                    .to_string(),
            ));
        }
        if opts.replay.is_some() && opts.record.is_some() {
            return Err(CliError::BadValue(
                "`--record` and `--replay` cannot be combined".to_string(),
            ));
        }
        Ok(opts)
    }

    /// Parse from the process arguments.  `--help` prints usage and exits
    /// with status 0; any error is printed and exits with status 2.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(CliError::Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(2);
            }
        }
    }

    /// Workload names as `&str` slices.
    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(String::as_str).collect()
    }

    /// Run one preset experiment on the paper machine under these options
    /// (scale, workloads/replay, threads) as a one-point sweep named after
    /// the preset — the body every figure/table binary shares.
    pub fn run_preset(&self, set: SystemSet) -> SweepResult {
        let sweep = Sweep::new(set.experiment).system_set(set);
        let sweep = match &self.replay {
            Some(path) => sweep.replay(path.clone()),
            None => sweep.workloads(self.workload_names()),
        };
        sweep.scale(self.scale).threads(self.threads).run()
    }

    /// Emit the optional artifacts of finished experiments: each result's
    /// sweep CSV to stdout under `--csv`; under `--out`, one sweep JSON
    /// object to the file, or an array of them for several results.
    ///
    /// Exits with status 2 if the `--out` file cannot be written.
    pub fn emit_artifacts(&self, results: &[SweepResult]) {
        if self.csv {
            for result in results {
                print!("{}", report::sweep_to_csv(result));
            }
        }
        if let Some(path) = &self.out {
            let body = match results {
                [one] => report::sweep_to_json(one),
                many => {
                    let objects: Vec<String> = many.iter().map(report::sweep_to_json).collect();
                    format!("[{}]", objects.join(","))
                }
            };
            if let Err(e) = std::fs::write(path, body + "\n") {
                eprintln!("error: writing {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    /// Handle `--record FILE` if present: stream the selected workload's
    /// trace to the file (never materializing it) and report what was
    /// written.  Returns `true` when recording happened — the binary should
    /// exit without running an experiment.
    ///
    /// Exits with status 2 when the selection is not exactly one workload or
    /// the file cannot be written.
    pub fn handle_record(&self) -> bool {
        let Some(path) = &self.record else {
            return false;
        };
        if self.workloads.len() != 1 {
            eprintln!(
                "error: --record needs exactly one workload; \
                 pick it with --workloads NAME"
            );
            std::process::exit(2);
        }
        let name = &self.workloads[0];
        let workload = splash_workloads::by_name(name).expect("workloads are validated by parse");
        let cfg = splash_workloads::WorkloadConfig::at_scale(self.scale.workload_scale());
        let mut stream = splash_workloads::fused(workload.as_ref(), &cfg);
        if let Err(e) = mem_trace::record_to_file(&mut stream, path) {
            eprintln!("error: recording {name} to {}: {e}", path.display());
            std::process::exit(2);
        }
        use mem_trace::TraceSource;
        let stats = stream.stats_so_far();
        println!(
            "recorded {name} ({} accesses, {} barriers, {} pages) to {}",
            stats.accesses,
            stats.barriers,
            stats.footprint_pages,
            path.display()
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, CliError> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_cover_all_workloads_at_reduced_scale() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, ExperimentScale::Reduced);
        assert_eq!(o.workloads.len(), 7);
        assert!(!o.csv);
        assert!(o.threads >= 1);
    }

    #[test]
    fn flags_are_recognized() {
        let o = parse(&[
            "--paper",
            "--csv",
            "--threads",
            "3",
            "--workloads",
            "lu,radix",
        ])
        .unwrap();
        assert_eq!(o.scale, ExperimentScale::Paper);
        assert!(o.csv);
        assert_eq!(o.threads, 3);
        assert_eq!(o.workloads, vec!["lu", "radix"]);
        assert_eq!(o.out, None);
        assert_eq!(o.record, None);
        assert_eq!(o.replay, None);
    }

    #[test]
    fn file_flags_take_paths() {
        let o = parse(&["--out", "results.json"]).unwrap();
        assert_eq!(o.out, Some(std::path::PathBuf::from("results.json")));
        let o = parse(&["--record", "lu.trc", "--workloads", "lu"]).unwrap();
        assert_eq!(o.record, Some(std::path::PathBuf::from("lu.trc")));
        let o = parse(&["--replay", "lu.trc"]).unwrap();
        assert_eq!(o.replay, Some(std::path::PathBuf::from("lu.trc")));
        // Each needs a value.
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--record", "--csv"]).is_err());
        assert!(parse(&["--replay"]).is_err());
        // No record requested: handle_record is a no-op.
        assert!(!parse(&[]).unwrap().handle_record());
    }

    #[test]
    fn replay_rejects_conflicting_selections() {
        let err = parse(&["--replay", "x.trc", "--workloads", "lu"]).unwrap_err();
        assert!(err.to_string().contains("--workloads"), "{err}");
        let err = parse(&["--workloads", "lu", "--replay", "x.trc"]).unwrap_err();
        assert!(err.to_string().contains("--replay"), "{err}");
        let err = parse(&["--replay", "x.trc", "--record", "y.trc"]).unwrap_err();
        assert!(err.to_string().contains("--record"), "{err}");
    }

    #[test]
    fn help_is_not_an_error_exit() {
        assert!(matches!(parse(&["--help"]), Err(CliError::Help)));
        assert!(matches!(parse(&["-h"]), Err(CliError::Help)));
        assert!(CliError::Help.to_string().contains("--workloads"));
    }

    #[test]
    fn unknown_flags_are_named() {
        // `workers` names a removed flag: it is rejected like any unknown one.
        for name in ["bogus", "workers"] {
            let bogus = format!("--{name}");
            match parse(&[bogus.as_str()]) {
                Err(CliError::UnknownFlag(flag)) => {
                    assert_eq!(flag, bogus);
                    let msg = CliError::UnknownFlag(flag).to_string();
                    assert!(msg.contains(&bogus), "{msg}");
                    assert!(msg.contains("--help"), "{msg}");
                }
                other => panic!("expected UnknownFlag for {bogus}, got {other:?}"),
            }
        }
    }

    #[test]
    fn custom_scale_flag_parses_rationals() {
        use splash_workloads::{CustomScale, Scale};
        let o = parse(&["--custom", "2"]).unwrap();
        assert_eq!(
            o.scale,
            ExperimentScale::Custom(CustomScale::new(2, 1)),
            "whole multiplier"
        );
        let o = parse(&["--custom", "1/16"]).unwrap();
        assert_eq!(
            o.scale.workload_scale(),
            Scale::Custom(CustomScale::new(1, 16))
        );
        for bad in ["0", "1/0", "x", "2/", "/3", "-1"] {
            assert!(
                parse(&["--custom", bad]).is_err(),
                "`--custom {bad}` should be rejected"
            );
        }
        assert!(parse(&["--custom"]).is_err());
    }

    #[test]
    fn bad_values_name_the_flag() {
        let err = parse(&["--workloads", "linpack"]).unwrap_err();
        assert!(err.to_string().contains("linpack"));
        assert!(err.to_string().contains("--workloads"));

        let err = parse(&["--threads", "x"]).unwrap_err();
        assert!(err.to_string().contains("--threads"));
    }

    #[test]
    fn missing_values_do_not_swallow_the_next_flag() {
        let err = parse(&["--threads", "--csv"]).unwrap_err();
        assert_eq!(
            err,
            CliError::BadValue("flag `--threads` needs a value".to_string())
        );
        let err = parse(&["--workloads"]).unwrap_err();
        assert!(err.to_string().contains("--workloads"));
    }
}
