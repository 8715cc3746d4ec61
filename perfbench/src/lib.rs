//! # refidem-perfbench — the end-to-end and per-layer benchmark
//!
//! One closed-loop client runs a workload's jobs back to back: the next
//! job starts when the previous one has finished, on the calling thread
//! (the `threads_p2` jobs add their two segment threads). The workload is
//! built from a seed, so the program under test receives only generated
//! inputs. See `README.md` beside this crate for the metrics, the
//! workloads and why each was chosen.
//!
//! A run has three phases:
//!
//! 1. **Set-up**, repeated [`SETUP_REPS`] times from scratch; `setup_s` is
//!    the median. The last set-up is kept.
//! 2. **Passes** over the workload's job list, whole passes only, until
//!    the requested seconds have passed. Each pass is cut into batches;
//!    the host-speed probe of [`calib`] runs between batches, and each
//!    batch's timings are scaled to the probe's reference speed by the
//!    mean of the probes on either side of it. Rates and latency
//!    percentiles are taken over every scaled batch.
//! 3. **Results**: counts and model outputs come from the first pass only,
//!    so they repeat exactly for one seed however long the run.
//!
//! With tracing on, odd-numbered passes record spans and even-numbered
//! ones do not; per-layer times come from the traced passes and the
//! tracing overhead from the two kinds' rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;

use metrics::{MetricError, Metrics};
use stats::Histogram;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Kind, Tally, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_us", "us"),
    ("job_p99_us", "us"),
    ("sim_mstmts_per_s", "Mstmt/s"),
    ("idem_ref_frac", "ratio"),
    ("sim_case_speedup", "x"),
    ("sim_hose_speedup", "x"),
    ("measured_case_speedup", "x"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("analysis.discover_us", "us"),
    ("analysis.region_us", "us"),
    ("analysis.sites", "count"),
    ("analysis.deps", "count"),
    ("core.cache_us", "us"),
    ("core.label_us", "us"),
    ("core.idem_static_frac", "ratio"),
    ("core.analysis_cache_hit_ratio", "ratio"),
    ("ir.lower_us", "us"),
    ("ir.fuse_us", "us"),
    ("ir.insts", "count"),
    ("ir.superinsts", "count"),
    ("ir.lowering_cache_hit_ratio", "ratio"),
    ("ir.seq_us", "us"),
    ("specsim.simulate_us", "us"),
    ("specsim.sim_stmts", "count"),
    ("specsim.threads_us", "us"),
    ("specsim.commit_ratio", "ratio"),
    ("specsim.violations", "count"),
    ("specsim.rollbacks", "count"),
    ("specsim.overflow_stalls", "count"),
    ("specsim.forwards", "count"),
    ("specsim.bypass_frac", "ratio"),
    ("specsim.spec_peak_occupancy", "count"),
    ("specsim.degraded_regions", "count"),
    ("bench.job_self_us", "us"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Which run to make.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Kind,
    /// The seed its inputs are generated from.
    pub seed: u64,
    /// How long the passes run, at least; a pass is never cut short.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The options the run was made with.
    pub options: RunOptions,
    /// Jobs attempted over all passes.
    pub attempted: u64,
    /// Jobs that failed: an error, or memory different from the oracle's.
    pub failed: u64,
    /// The first distinct failing jobs, each with the reason.
    pub failures: Vec<String>,
    /// Jobs in one pass.
    pub pass_len: usize,
    /// Passes run.
    pub passes: usize,
    /// The job list of one pass, by name.
    pub job_names: Vec<String>,
    /// The first pass's counts.
    pub first_pass: Tally,
    /// Jobs the latency percentiles are taken over: every untraced job.
    pub latency_samples: u64,
    /// Jobs per host second of the untraced batches, not scaled.
    pub raw_jobs_per_s: f64,
    /// How fast the host ran during the untraced batches, relative to the
    /// reference speed of [`calib::REFERENCE_NS`].
    pub host_speed: f64,
    /// The reported metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Metrics,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

impl RunReport {
    /// Share of attempted jobs that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Sums over one batch of consecutive jobs.
#[derive(Debug, Default)]
struct Batch {
    jobs: u64,
    ns: u64,
    sim_ns: u64,
    sim_stmts: u64,
    seq_ns: u64,
    case_ns: u64,
    latencies: Vec<u64>,
}

/// Timings summed over batches, in nanoseconds at the reference host
/// speed. Memory stays fixed however many jobs a run completes, so
/// `peak_rss_mb` measures the library, not this bookkeeping.
#[derive(Debug, Default)]
struct Scaled {
    jobs: u64,
    raw_ns: u64,
    ns: f64,
    sim_ns: f64,
    sim_stmts: u64,
    seq_ns: f64,
    case_ns: f64,
    latencies: Histogram,
}

impl Scaled {
    /// Adds a batch, scaling its timings by `probe_ns`, the mean of the
    /// probes taken right before and right after it: by less than 1 when
    /// the host was slower than the reference.
    fn add(&mut self, b: &Batch, probe_ns: u64) {
        let k = calib::REFERENCE_NS / probe_ns.max(1) as f64;
        self.jobs += b.jobs;
        self.raw_ns += b.ns;
        self.ns += b.ns as f64 * k;
        self.sim_ns += b.sim_ns as f64 * k;
        self.sim_stmts += b.sim_stmts;
        self.seq_ns += b.seq_ns as f64 * k;
        self.case_ns += b.case_ns as f64 * k;
        for &l in &b.latencies {
            self.latencies.record(l as f64 * k);
        }
    }

    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / (self.ns.max(1.0) / 1e9)
    }

    /// Scaled over raw time: how fast the host ran relative to the
    /// reference (1 = reference speed).
    fn host_speed(&self) -> f64 {
        self.ns / self.raw_ns.max(1) as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Probes the host's speed [`PROBES`] times and returns the median probe
/// time.
fn probe_median() -> u64 {
    let mut t: Vec<u64> = (0..PROBES).map(|_| calib::probe_ns()).collect();
    t.sort_unstable();
    t[PROBES / 2]
}

/// Probes after each set-up.
const PROBES: usize = 3;

/// Sets the workload up [`SETUP_REPS`] times, then runs passes over its
/// job list for `options.seconds`.
pub fn run(options: RunOptions) -> Result<RunReport, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so each one starts from nothing.
        drop(kept.take());
        let start = Instant::now();
        let w = workload::setup(options.workload, options.seed)?;
        let secs = start.elapsed().as_secs_f64();
        setup_times.push(secs * calib::REFERENCE_NS / probe_median() as f64);
        kept = Some(w);
    }
    let w = kept.expect("SETUP_REPS > 0");
    let pass_len = w.pass_len();
    let batch_len = w.batch_len();
    assert!(
        batch_len > 0 && pass_len % batch_len == 0,
        "batches tile the pass"
    );
    let job_names: Vec<String> = (0..pass_len).map(|i| w.job_name(i)).collect();

    let min_passes = if options.trace { 2 } else { 1 };
    let budget = Duration::from_secs_f64(options.seconds.max(0.0));
    let mut tracer = Tracer::new();
    let (mut traced_sums, mut untraced_sums) = (Scaled::default(), Scaled::default());
    let mut passes = 0usize;
    let mut first_pass = Tally::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut probe_before = calib::probe_ns();
    let start = Instant::now();
    while passes < min_passes || start.elapsed() < budget {
        let traced = options.trace && passes % 2 == 1;
        tracer.set_enabled(traced);
        for (b, names) in job_names.chunks(batch_len).enumerate() {
            let mut batch = Batch {
                latencies: Vec::with_capacity(batch_len),
                ..Batch::default()
            };
            for (k, name) in names.iter().enumerate() {
                let job = u32::try_from(attempted).expect("fewer than 2^32 jobs");
                tracer.set_job(job);
                let rec = w.run_job(b * batch_len + k, &mut tracer);
                attempted += 1;
                if let Some(why) = rec.failure {
                    failed += 1;
                    let seen = failures.iter().any(|f: &String| {
                        f.strip_prefix(name.as_str())
                            .is_some_and(|rest| rest.starts_with(':'))
                    });
                    if failures.len() < 8 && !seen {
                        failures.push(format!("{name}: {why}"));
                    }
                }
                if passes == 0 {
                    first_pass.merge(&rec.tally);
                }
                batch.jobs += 1;
                batch.ns += rec.ns;
                batch.sim_ns += rec.sim_ns;
                batch.sim_stmts += rec.tally.sim_stmts;
                batch.seq_ns += rec.seq_ns;
                batch.case_ns += rec.case_ns;
                batch.latencies.push(rec.ns);
            }
            let probe_after = calib::probe_ns();
            let sums = if traced {
                &mut traced_sums
            } else {
                &mut untraced_sums
            };
            sums.add(&batch, (probe_before + probe_after) / 2);
            probe_before = probe_after;
        }
        passes += 1;
    }
    tracer.set_enabled(false);

    let untraced = &untraced_sums;
    let metrics = if options.trace {
        per_layer(&first_pass, &traced_sums, untraced, &tracer)
    } else {
        end_to_end(&setup_times, &first_pass, untraced)
    }
    .map_err(|e| e.to_string())?;
    Ok(RunReport {
        options,
        attempted,
        failed,
        failures,
        pass_len,
        passes,
        job_names,
        first_pass,
        latency_samples: untraced.jobs,
        raw_jobs_per_s: untraced.jobs as f64 / (untraced.raw_ns.max(1) as f64 / 1e9),
        host_speed: untraced.host_speed(),
        metrics,
        tracer,
    })
}

fn end_to_end(setup_times: &[f64], first: &Tally, run: &Scaled) -> Result<Metrics, MetricError> {
    let us = |ns: f64| ns / 1e3;
    let values = [
        stats::median(setup_times),
        run.jobs_per_s(),
        us(run.latencies.percentile(0.50)),
        us(run.latencies.percentile(0.99)),
        run.sim_stmts as f64 / 1e6 / (run.sim_ns.max(1.0) / 1e9),
        ratio(first.dyn_idempotent, first.dyn_refs),
        stats::geomean(first.case_log_speedup, first.case_runs),
        stats::geomean(first.hose_log_speedup, first.hose_runs),
        run.seq_ns / run.case_ns.max(1.0),
        peak_rss_mb(),
    ];
    let mut m = Metrics::default();
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        m.put(name, value, unit)?;
    }
    Ok(m)
}

fn per_layer(
    first: &Tally,
    traced: &Scaled,
    untraced: &Scaled,
    tracer: &Tracer,
) -> Result<Metrics, MetricError> {
    let self_times = tracer.self_times();
    // Spans carry raw host time; bring them to the reference speed with
    // the traced batches' own factor.
    let self_us = |name: &str| {
        self_times.get(name).map_or(0.0, |t| {
            t.self_ns as f64 * traced.host_speed() / 1e3 / traced.jobs.max(1) as f64
        })
    };
    let (traced_rate, untraced_rate) = (traced.jobs_per_s(), untraced.jobs_per_s());
    let values = [
        self_us("analysis.discover"),
        self_us("analysis.region"),
        first.sites as f64,
        first.deps as f64,
        self_us("core.cache"),
        self_us("core.label"),
        ratio(first.static_idempotent, first.static_sites),
        ratio(
            first.analysis_hits,
            first.analysis_hits + first.analysis_misses,
        ),
        self_us("ir.lower"),
        self_us("ir.fuse"),
        first.insts as f64,
        first.superinsts as f64,
        ratio(
            first.lowering_hits,
            first.lowering_hits + first.lowering_misses,
        ),
        self_us("ir.seq"),
        self_us("specsim.simulate"),
        first.sim_stmts as f64,
        self_us("specsim.threads"),
        ratio(first.commits, first.commits + first.rollbacks),
        first.violations as f64,
        first.rollbacks as f64,
        first.overflow_stalls as f64,
        first.forwards as f64,
        ratio(first.bypassed, first.refs),
        first.peak_occupancy as f64,
        first.degraded_regions as f64,
        self_us("job"),
        traced_rate,
        untraced_rate,
        1.0 - traced_rate / untraced_rate,
    ];
    let mut m = Metrics::default();
    for ((name, unit), value) in PER_LAYER.into_iter().zip(values) {
        m.put(name, value, unit)?;
    }
    Ok(m)
}

/// Peak resident memory of this process, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
