//! Command-line entry point of the benchmark.
//!
//! ```text
//! refidem-perfbench --workload <sweep_warm|compile_cold|threads_p2>
//!                   --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a run header as one JSON line, then the result as the last
//! line of standard output. A traced run also writes its spans to
//! `out/trace-<workload>-<seed>.csv` beside this crate's manifest.

use refidem_perfbench::metrics::{json_f64, result_json};
use refidem_perfbench::workload::Kind;
use refidem_perfbench::{run, RunOptions, RunReport};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn parse_args(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Kind>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(RunOptions {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// `rustc -V`, or `unknown` when no compiler is on the path.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(name)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn header(report: &RunReport) -> String {
    let o = &report.options;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \"pass_len\": {}, \"passes\": {}, \
         \"jobs\": {}, \"latency_samples\": {}, \"failed\": {}, \"failed_frac\": {}, \
         \"raw_jobs_per_s\": {}, \"host_speed\": {}, \"first_failures\": [{}]}}}}",
        json_str(o.workload.name()),
        o.seed,
        json_f64(o.seconds),
        u8::from(o.trace),
        json_str(&rustc_version()),
        json_str(&git_revision()),
        report.pass_len,
        report.passes,
        report.attempted,
        report.latency_samples,
        report.failed,
        json_f64(report.failed_frac()),
        json_f64(report.raw_jobs_per_s),
        json_f64(report.host_speed),
        report
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn trace_path(report: &RunReport) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-{}.csv",
            report.options.workload, report.options.seed
        ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("refidem-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("refidem-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if options.trace {
        let path = trace_path(&report);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| report.tracer.write_csv(&path));
        if let Err(e) = written {
            eprintln!("refidem-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "refidem-perfbench: {} spans written to {}",
            report.tracer.spans().len(),
            path.display()
        );
    }
    println!("{}", header(&report));
    println!(
        "{}",
        result_json(
            report.failed == 0,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_full_command_line_parses() {
        let o = parse_args(&args(
            "--workload compile_cold --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, Kind::CompileCold);
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 10.0);
        assert!(o.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload sweep_warm --seconds 1",
            "--workload sweep_warm --seed x --seconds 1",
            "--workload sweep_warm --seed 1 --seconds 1 --trace 2",
            "--workload sweep_warm --seed 1 --seconds -1",
            "--workload sweep_warm --seed 1 --seconds 1 --extra 3",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
