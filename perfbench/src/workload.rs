//! The benchmark's three workloads.
//!
//! Each workload is set up from a seed into a fixed list of jobs, one
//! *pass*. The runner repeats passes until its time is up. A job's host
//! latency covers only the calls into the library; checking its output
//! against the oracle and counting its statistics happen after the clock
//! stops.
//!
//! * [`SweepWarm`]: the paper's evaluation traffic over warm caches.
//! * [`CompileCold`]: programs never seen before, each with fresh caches.
//! * [`ThreadsP2`]: the real-thread runtime at two segment threads.

use crate::trace::Tracer;
use refidem_analysis::classify::VarClass;
use refidem_analysis::region::RegionAnalysis;
use refidem_analysis::schedule::discover_regions;
use refidem_benchmarks::all_benchmarks;
use refidem_core::cache::{AnalysisCache, AnalysisKey};
use refidem_core::label::{label_region, LabeledProgram, LabeledRegion};
use refidem_core::stats::DynLabelStats;
use refidem_ir::ids::ProcId;
use refidem_ir::lowered::fused::fuse;
use refidem_ir::lowered::{lower, LoweredCache};
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::program::Program;
use refidem_specsim::{
    compare_program_modes, run_program_sequential, simulate_program, ExecMode, ProgramReport,
    SeqProgramOutcome, SimConfig, SpecRuntime,
};
use refidem_testkit::{generate_with, giant_block, GenConfig, Rng};
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulated sweep over the 14 named benchmarks, caches warm.
    SweepWarm,
    /// Unseen generated programs, each with fresh caches.
    CompileCold,
    /// Sequential, CASE and HOSE on the real-thread runtime.
    ThreadsP2,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::SweepWarm, Kind::CompileCold, Kind::ThreadsP2];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepWarm => "sweep_warm",
            Kind::CompileCold => "compile_cold",
            Kind::ThreadsP2 => "threads_p2",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!("unknown workload `{s}` (expected sweep_warm, compile_cold or threads_p2)")
            })
    }
}

/// Counts a job leaves behind. They depend only on the job's inputs, so
/// summed over the first pass they repeat exactly for one seed — except
/// the speculation counts of the real-thread runtime, which depend on how
/// its threads interleave.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    /// Reference sites of the regions analyzed (cache misses only).
    pub sites: u64,
    /// Dependences found in the regions analyzed.
    pub deps: u64,
    /// Plain bytecode instructions from the explicit `lower` calls.
    pub insts: u64,
    /// Superinstructions from the explicit `fuse` calls.
    pub superinsts: u64,
    /// Analysis-cache lookups that hit.
    pub analysis_hits: u64,
    /// Analysis-cache lookups that missed.
    pub analysis_misses: u64,
    /// Lowering-cache lookups that hit, from the simulation reports.
    pub lowering_hits: u64,
    /// Lowering-cache lookups that missed.
    pub lowering_misses: u64,
    /// Labeled reference sites of the regions looked up.
    pub static_sites: u64,
    /// Of those, sites labeled idempotent.
    pub static_idempotent: u64,
    /// Dynamic references of the non-parallelizable regions, sequential run.
    pub dyn_refs: u64,
    /// Of those, references through idempotent sites.
    pub dyn_idempotent: u64,
    /// Statements the speculative runs executed.
    pub sim_stmts: u64,
    /// Segment commits.
    pub commits: u64,
    /// Segment rollbacks.
    pub rollbacks: u64,
    /// Dependence violations.
    pub violations: u64,
    /// Speculative-buffer overflow stalls.
    pub overflow_stalls: u64,
    /// Values forwarded between segments.
    pub forwards: u64,
    /// Dynamic references of the speculative runs.
    pub refs: u64,
    /// Of those, references that bypassed speculative storage.
    pub bypassed: u64,
    /// Highest speculative-buffer occupancy seen.
    pub peak_occupancy: u64,
    /// Regions that fell back to serial execution.
    pub degraded_regions: u64,
    /// Sum of the natural logs of simulated CASE speedups.
    pub case_log_speedup: f64,
    /// Number of CASE speedups summed.
    pub case_runs: u64,
    /// Sum of the natural logs of simulated HOSE speedups.
    pub hose_log_speedup: f64,
    /// Number of HOSE speedups summed.
    pub hose_runs: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.sites += other.sites;
        self.deps += other.deps;
        self.insts += other.insts;
        self.superinsts += other.superinsts;
        self.analysis_hits += other.analysis_hits;
        self.analysis_misses += other.analysis_misses;
        self.lowering_hits += other.lowering_hits;
        self.lowering_misses += other.lowering_misses;
        self.static_sites += other.static_sites;
        self.static_idempotent += other.static_idempotent;
        self.dyn_refs += other.dyn_refs;
        self.dyn_idempotent += other.dyn_idempotent;
        self.sim_stmts += other.sim_stmts;
        self.commits += other.commits;
        self.rollbacks += other.rollbacks;
        self.violations += other.violations;
        self.overflow_stalls += other.overflow_stalls;
        self.forwards += other.forwards;
        self.refs += other.refs;
        self.bypassed += other.bypassed;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
        self.degraded_regions += other.degraded_regions;
        self.case_log_speedup += other.case_log_speedup;
        self.case_runs += other.case_runs;
        self.hose_log_speedup += other.hose_log_speedup;
        self.hose_runs += other.hose_runs;
    }

    fn add_sim(&mut self, report: &ProgramReport) {
        self.lowering_hits += report.lowering_cache_hits;
        self.lowering_misses += report.lowering_cache_misses;
        for r in &report.regions {
            self.sim_stmts += r.statements;
            self.commits += r.commits;
            self.rollbacks += r.rollbacks;
            self.violations += r.violations;
            self.overflow_stalls += r.overflow_stalls;
            self.forwards += r.forwards;
            self.refs += r.total_refs();
            self.bypassed +=
                r.nonspec_reads + r.nonspec_writes + r.private_reads + r.private_writes;
            self.peak_occupancy = self.peak_occupancy.max(r.spec_peak_occupancy as u64);
        }
        self.degraded_regions += report.degraded_regions().len() as u64;
    }

    fn add_speedup(&mut self, mode: ExecMode, speedup: f64) {
        match mode {
            ExecMode::Case => {
                self.case_log_speedup += speedup.ln();
                self.case_runs += 1;
            }
            ExecMode::Hose => {
                self.hose_log_speedup += speedup.ln();
                self.hose_runs += 1;
            }
        }
    }

    fn add_labels(&mut self, labeled: &LabeledProgram, hits: &[bool]) {
        for (region, &hit) in labeled.regions.iter().zip(hits) {
            let stats = region.stats();
            self.static_sites += stats.total_static as u64;
            self.static_idempotent += stats.idempotent_static as u64;
            if hit {
                self.analysis_hits += 1;
            } else {
                self.analysis_misses += 1;
                self.sites += region.analysis.table.sites().len() as u64;
                self.deps += region.analysis.deps.len() as u64;
            }
        }
    }

    fn add_dyn(&mut self, stats: &DynLabelStats) {
        self.dyn_refs += stats.total;
        self.dyn_idempotent += stats.idempotent;
    }
}

/// What one job reports to the runner.
#[derive(Clone, Debug, Default)]
pub struct JobRecord {
    /// Host nanoseconds spent in the job's calls into the library.
    pub ns: u64,
    /// Why the job failed: a call returned an error, or final memory
    /// differed from the oracle's. `None` for a job that passed.
    pub failure: Option<String>,
    /// Host nanoseconds inside `simulate_program`.
    pub sim_ns: u64,
    /// Host nanoseconds of the job's sequential reference run.
    pub seq_ns: u64,
    /// Host nanoseconds of the job's CASE run.
    pub case_ns: u64,
    /// The job's counts.
    pub tally: Tally,
}

/// A workload ready to run: its inputs generated and its caches warm.
pub trait Workload {
    /// Number of jobs in one pass.
    fn pass_len(&self) -> usize;

    /// Jobs per batch, the unit the runner times. Batches tile the pass.
    fn batch_len(&self) -> usize;

    /// A name for job `i` of the pass that identifies its inputs.
    fn job_name(&self, i: usize) -> String;

    /// Runs job `i` of the pass.
    fn run_job(&self, i: usize, tr: &mut Tracer) -> JobRecord;
}

/// Sets up `kind` from `seed`. The same seed gives the same job list.
pub fn setup(kind: Kind, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::SweepWarm => Box::new(SweepWarm::new(seed)?),
        Kind::CompileCold => Box::new(CompileCold::new(seed)),
        Kind::ThreadsP2 => Box::new(ThreadsP2::new(seed)?),
    })
}

/// The procedure every workload program keeps its regions in.
fn proc0() -> ProcId {
    ProcId::from_index(0)
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("job shorter than 584 years")
}

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Discovers the regions of procedure 0 and labels each through `cache`,
/// as `AnalysisCache::label_program_cached` does, with a span around each
/// layer's call. Returns the labeled program and, per region, whether the
/// cache hit.
fn label_through(
    cache: &AnalysisCache,
    program: &Program,
    tr: &mut Tracer,
) -> Result<(LabeledProgram, Vec<bool>), String> {
    let schedule = tr.span("analysis.discover", |_| discover_regions(program, proc0()));
    let proc = program.procedure(proc0());
    let (regions, hits) = tr.span("core.cache", |tr| {
        let mut regions = Vec::with_capacity(schedule.len());
        let mut hits = Vec::with_capacity(schedule.len());
        for r in &schedule.regions {
            let key = AnalysisKey::new(proc, r.spec.loop_label.clone());
            let found = cache
                .lookup(key, || {
                    let analysis = tr.span("analysis.region", |_| {
                        RegionAnalysis::analyze(program, &r.spec)
                    })?;
                    let labeling = tr.span("core.label", |_| label_region(&analysis));
                    Ok(LabeledRegion { analysis, labeling })
                })
                .map_err(|e| e.to_string())?;
            hits.push(found.hit);
            regions.push(LabeledRegion::clone(&found.region));
        }
        Ok::<_, String>((regions, hits))
    })?;
    Ok((
        LabeledProgram {
            proc: proc0(),
            schedule,
            regions,
        },
        hits,
    ))
}

/// Address ranges of the variables some region classifies private. Their
/// final values are dead, so the oracle comparison skips them, as the
/// testkit's differential runner does.
fn private_ranges(program: &Program, labeled: &LabeledProgram) -> Vec<(u64, u64)> {
    let proc = program.procedure(proc0());
    let layout = Layout::new(&proc.vars);
    let mut ranges = Vec::new();
    for region in &labeled.regions {
        for (v, class) in region.analysis.classes.iter() {
            if class == VarClass::Private {
                let base = layout.base(v).0;
                ranges.push((base, base + proc.vars.kind(v).size() as u64));
            }
        }
    }
    ranges
}

/// Compares `got` with `oracle` bit for bit outside `ignored`, naming the
/// first differing word of the `what` run.
fn check(what: &str, oracle: &Memory, got: &Memory, ignored: &[(u64, u64)]) -> Option<String> {
    if oracle.len() != got.len() {
        return Some(format!(
            "{what}: memory of {} words, oracle {}",
            got.len(),
            oracle.len()
        ));
    }
    (0..oracle.len() as u64)
        .filter(|w| !ignored.iter().any(|&(lo, hi)| *w >= lo && *w < hi))
        .find(|&w| oracle.load(Addr(w)).to_bits() != got.load(Addr(w)).to_bits())
        .map(|w| {
            format!(
                "{what}: word {w} is {}, oracle {}",
                got.load(Addr(w)),
                oracle.load(Addr(w))
            )
        })
}

/// Dynamic labeling statistics of the regions the compiler cannot
/// parallelize — the population of the paper's Figure 5.
fn dyn_stats(labeled: &LabeledProgram, seq: &SeqProgramOutcome) -> DynLabelStats {
    let mut merged = DynLabelStats::default();
    for (region, counts) in labeled.regions.iter().zip(&seq.region_counts) {
        if !region.analysis.compiler_parallelizable {
            merged.merge(&region.labeling.dynamic_stats(counts));
        }
    }
    merged
}

fn speedup(sequential_cycles: u64, report: &ProgramReport) -> f64 {
    sequential_cycles as f64 / report.total_cycles.max(1) as f64
}

/// The oracle: the tree-walk interpreter, never the tier under test.
fn oracle_run(
    program: &Program,
    labeled: &LabeledProgram,
    base: &SimConfig,
) -> Result<SeqProgramOutcome, String> {
    run_program_sequential(program, labeled, &base.clone().oracle())
        .map_err(|e| format!("oracle: {e}"))
}

// ---------------------------------------------------------------------------
// sweep_warm
// ---------------------------------------------------------------------------

/// Processor counts of the sweep.
pub const SWEEP_PROCESSORS: [usize; 3] = [2, 4, 8];
/// Speculative-buffer capacities of the sweep: 2 overflows, 256 does not.
pub const SWEEP_CAPACITIES: [usize; 3] = [2, 16, 256];
/// Shuffled copies of the sweep grid in one pass.
const SWEEP_COPIES: usize = 4;

struct SweepBench {
    name: &'static str,
    program: Program,
    oracle: Memory,
    ignored: Vec<(u64, u64)>,
    seq_cycles: u64,
    dyn_stats: DynLabelStats,
}

#[derive(Clone, Copy)]
struct SweepPoint {
    bench: usize,
    config: usize,
    mode: ExecMode,
}

/// One `simulate_program` call per job, under the simulated runtime, at
/// one point of processors × capacity × mode on one named benchmark.
pub struct SweepWarm {
    analysis: AnalysisCache,
    benches: Vec<SweepBench>,
    configs: Vec<SimConfig>,
    points: Vec<SweepPoint>,
    jobs: Vec<usize>,
}

impl SweepWarm {
    fn new(seed: u64) -> Result<Self, String> {
        let analysis = AnalysisCache::fresh();
        let base = SimConfig::default()
            .cache(LoweredCache::fresh())
            .analysis_cache(analysis.clone());
        let mut benches = Vec::new();
        for b in all_benchmarks() {
            let (labeled, _) = analysis
                .label_program_cached(&b.program, proc0())
                .map_err(|e| format!("{}: {e}", b.name))?;
            let oracle = oracle_run(&b.program, &labeled, &base)?;
            let seq = run_program_sequential(&b.program, &labeled, &base)
                .map_err(|e| format!("{}: {e}", b.name))?;
            benches.push(SweepBench {
                name: b.name,
                ignored: private_ranges(&b.program, &labeled),
                seq_cycles: seq.total_cycles,
                dyn_stats: dyn_stats(&labeled, &seq),
                oracle: oracle.memory,
                program: b.program,
            });
        }
        let configs: Vec<SimConfig> = SWEEP_PROCESSORS
            .iter()
            .flat_map(|&p| {
                let base = &base;
                SWEEP_CAPACITIES
                    .iter()
                    .map(move |&c| base.clone().processors(p).capacity(c))
            })
            .collect();
        let mut points = Vec::new();
        for bench in 0..benches.len() {
            for config in 0..configs.len() {
                for mode in [ExecMode::Hose, ExecMode::Case] {
                    points.push(SweepPoint {
                        bench,
                        config,
                        mode,
                    });
                }
            }
        }
        let mut rng = Rng::new(seed);
        let mut jobs = Vec::with_capacity(points.len() * SWEEP_COPIES);
        for _ in 0..SWEEP_COPIES {
            let mut copy: Vec<usize> = (0..points.len()).collect();
            shuffle(&mut copy, &mut rng);
            jobs.extend(copy);
        }
        let sweep = SweepWarm {
            analysis,
            benches,
            configs,
            points,
            jobs,
        };
        // Fill the lowering cache at every point before timing starts.
        let mut quiet = Tracer::new();
        for p in 0..sweep.points.len() {
            let rec = sweep.run_point(p, &mut quiet);
            if let Some(why) = rec.failure {
                return Err(format!("set-up run of {}: {why}", sweep.point_name(p)));
            }
        }
        Ok(sweep)
    }

    fn point_name(&self, p: usize) -> String {
        let pt = self.points[p];
        let cfg = &self.configs[pt.config];
        format!(
            "{} p{} c{} {:?}",
            self.benches[pt.bench].name, cfg.processors, cfg.spec_capacity, pt.mode
        )
    }

    fn run_point(&self, p: usize, tr: &mut Tracer) -> JobRecord {
        let pt = self.points[p];
        let bench = &self.benches[pt.bench];
        let cfg = &self.configs[pt.config];
        let start = Instant::now();
        tr.begin("job");
        let labeled = label_through(&self.analysis, &bench.program, tr);
        let mut sim_ns = 0;
        let out = labeled
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(labeled, _)| {
                let sim = Instant::now();
                let out = tr.span("specsim.simulate", |_| {
                    simulate_program(&bench.program, labeled, pt.mode, cfg)
                });
                sim_ns = nanos(sim);
                out.map_err(|e| format!("{:?}: {e}", pt.mode))
            });
        tr.end();
        let ns = nanos(start);

        let mut rec = JobRecord {
            ns,
            sim_ns,
            ..JobRecord::default()
        };
        match (labeled, out) {
            (Ok((labeled, hits)), Ok(out)) => {
                rec.failure = check("simulate", &bench.oracle, &out.memory, &bench.ignored);
                rec.tally.add_labels(&labeled, &hits);
                rec.tally.add_sim(&out.report);
                rec.tally
                    .add_speedup(pt.mode, speedup(bench.seq_cycles, &out.report));
                rec.tally.add_dyn(&bench.dyn_stats);
                if pt.mode == ExecMode::Case {
                    // The sequential reference runs right after the CASE
                    // run, outside the job's latency, so that both see the
                    // same load on the host.
                    let t = Instant::now();
                    let seq = run_program_sequential(&bench.program, &labeled, cfg);
                    rec.seq_ns = nanos(t);
                    rec.case_ns = sim_ns;
                    if let Err(e) = seq {
                        rec.failure.get_or_insert(format!("sequential: {e}"));
                    }
                }
            }
            (_, Err(e)) | (Err(e), _) => rec.failure = Some(e),
        }
        rec
    }
}

impl Workload for SweepWarm {
    fn pass_len(&self) -> usize {
        self.jobs.len()
    }

    /// One shuffled copy of the grid.
    fn batch_len(&self) -> usize {
        self.points.len()
    }

    fn job_name(&self, i: usize) -> String {
        self.point_name(self.jobs[i])
    }

    fn run_job(&self, i: usize, tr: &mut Tracer) -> JobRecord {
        self.run_point(self.jobs[i], tr)
    }
}

// ---------------------------------------------------------------------------
// compile_cold
// ---------------------------------------------------------------------------

/// Programs in one pass of `compile_cold`: enough that the corpus a seed
/// draws barely moves the medians (1000 left 10% between seeds).
pub const COLD_PROGRAMS: usize = 4000;
/// Every this many jobs, one is a giant block instead of a generated program.
pub const GIANT_EVERY: usize = 50;
/// Statements of a giant block.
pub const GIANT_STMTS: usize = 256;

/// The generator tuning of `compile_cold`: larger bodies and longer trips
/// than the testkit's defaults, and no data-dependent WHILE regions.
///
/// WHILE regions are left out because some of them end with memory
/// different from the oracle's under both HOSE and CASE at 4 and 8
/// processors (for example `debug_seed 3322` of the testkit, at its
/// default tuning), and a benchmark must run on inputs where no job fails.
/// The named `IRREG` benchmark of `sweep_warm` still runs a WHILE region.
/// Put them back (drop `while_pct: 0`) once that defect is fixed.
pub fn cold_gen_config() -> GenConfig {
    GenConfig {
        max_stmts: 12,
        min_trips: 8,
        max_trips: 48,
        while_pct: 0,
        ..GenConfig::default()
    }
}

/// Each job is a program no cache has seen: fresh analysis and lowering
/// caches, then discover → label → lower and fuse each region loop → one
/// CASE and one HOSE `simulate_program` → the oracle run.
pub struct CompileCold {
    programs: Vec<(String, Program)>,
}

impl CompileCold {
    fn new(seed: u64) -> Self {
        let gen_cfg = cold_gen_config();
        let mut rng = Rng::new(seed);
        let programs = (0..COLD_PROGRAMS)
            .map(|j| {
                let s = rng.next_u64();
                if j % GIANT_EVERY == GIANT_EVERY - 1 {
                    (format!("giant {s:#018x}"), giant_block(s, GIANT_STMTS).0)
                } else {
                    (format!("gen {s:#018x}"), generate_with(s, &gen_cfg).program)
                }
            })
            .collect();
        CompileCold { programs }
    }
}

impl Workload for CompileCold {
    fn pass_len(&self) -> usize {
        self.programs.len()
    }

    /// One giant block and the generated programs before it.
    fn batch_len(&self) -> usize {
        GIANT_EVERY
    }

    fn job_name(&self, i: usize) -> String {
        self.programs[i].0.clone()
    }

    fn run_job(&self, i: usize, tr: &mut Tracer) -> JobRecord {
        let program = &self.programs[i].1;
        let mut rec = JobRecord::default();
        let start = Instant::now();
        tr.begin("job");
        let analysis = AnalysisCache::fresh();
        let cfg = SimConfig::default().cache(LoweredCache::fresh());
        let labeled = label_through(&analysis, program, tr);
        let runs = labeled.as_ref().map_err(Clone::clone).map(|(labeled, _)| {
            let proc = program.procedure(proc0());
            let layout = Layout::new(&proc.vars);
            for r in &labeled.schedule.regions {
                let stmt = std::slice::from_ref(&proc.body[r.stmt_index]);
                let base = tr.span("ir.lower", |_| lower(&proc.vars, &layout, stmt));
                let fused = tr.span("ir.fuse", |_| fuse(&base));
                rec.tally.insts += base.inst_count() as u64;
                rec.tally.superinsts += fused.superinst_count() as u64;
            }
            let mut sim = |mode| {
                let t = Instant::now();
                let out = tr.span("specsim.simulate", |_| {
                    simulate_program(program, labeled, mode, &cfg)
                });
                (out.map_err(|e| format!("{mode:?}: {e}")), nanos(t))
            };
            let (case, case_ns) = sim(ExecMode::Case);
            let (hose, hose_ns) = sim(ExecMode::Hose);
            let t = Instant::now();
            let seq = tr.span("ir.seq", |_| oracle_run(program, labeled, &cfg));
            rec.seq_ns = nanos(t);
            rec.case_ns = case_ns;
            rec.sim_ns = case_ns + hose_ns;
            (case, hose, seq)
        });
        tr.end();
        rec.ns = nanos(start);

        let finished = (|| {
            let (labeled, hits) = labeled?;
            let (case, hose, seq) = runs?;
            Ok::<_, String>((labeled, hits, case?, hose?, seq?))
        })();
        match finished {
            Ok((labeled, hits, case, hose, seq)) => {
                let ignored = private_ranges(program, &labeled);
                rec.failure = check("Case", &seq.memory, &case.memory, &ignored)
                    .or_else(|| check("Hose", &seq.memory, &hose.memory, &ignored));
                rec.tally.add_labels(&labeled, &hits);
                rec.tally.add_dyn(&dyn_stats(&labeled, &seq));
                for (mode, out) in [(ExecMode::Case, &case), (ExecMode::Hose, &hose)] {
                    rec.tally.add_sim(&out.report);
                    rec.tally
                        .add_speedup(mode, speedup(seq.total_cycles, &out.report));
                }
            }
            Err(e) => rec.failure = Some(e),
        }
        rec
    }
}

// ---------------------------------------------------------------------------
// threads_p2
// ---------------------------------------------------------------------------

/// Segment threads of `threads_p2`.
pub const THREADS: usize = 2;
/// Shuffled copies of the 14 benchmarks in one pass.
const THREADS_COPIES: usize = 72;

struct ThreadsBench {
    name: &'static str,
    program: Program,
    oracle: Memory,
    ignored: Vec<(u64, u64)>,
    sim_case_speedup: f64,
    sim_hose_speedup: f64,
}

/// Each job runs one named benchmark three ways: `run_program_sequential`,
/// then CASE and HOSE under `SpecRuntime::Threads` at two segment threads,
/// caches warm.
pub struct ThreadsP2 {
    analysis: AnalysisCache,
    seq_cfg: SimConfig,
    threads_cfg: SimConfig,
    benches: Vec<ThreadsBench>,
    jobs: Vec<usize>,
}

impl ThreadsP2 {
    fn new(seed: u64) -> Result<Self, String> {
        let analysis = AnalysisCache::fresh();
        let seq_cfg = SimConfig::default()
            .processors(THREADS)
            .cache(LoweredCache::fresh())
            .analysis_cache(analysis.clone());
        let threads_cfg = seq_cfg.clone().runtime(SpecRuntime::Threads);
        let mut benches = Vec::new();
        for b in all_benchmarks() {
            let fail = |e: String| format!("{}: {e}", b.name);
            let (labeled, _) = analysis
                .label_program_cached(&b.program, proc0())
                .map_err(|e| fail(e.to_string()))?;
            let oracle = oracle_run(&b.program, &labeled, &seq_cfg).map_err(fail)?;
            // The cycle model's prediction at the same processor count.
            let model = compare_program_modes(&b.program, &labeled, &seq_cfg)
                .map_err(|e| fail(e.to_string()))?;
            // Warm the lowering cache for the three timed calls.
            run_program_sequential(&b.program, &labeled, &seq_cfg)
                .map_err(|e| fail(e.to_string()))?;
            for mode in [ExecMode::Case, ExecMode::Hose] {
                simulate_program(&b.program, &labeled, mode, &threads_cfg)
                    .map_err(|e| fail(e.to_string()))?;
            }
            benches.push(ThreadsBench {
                name: b.name,
                ignored: private_ranges(&b.program, &labeled),
                oracle: oracle.memory,
                sim_case_speedup: model.case_speedup(),
                sim_hose_speedup: model.hose_speedup(),
                program: b.program,
            });
        }
        let mut rng = Rng::new(seed);
        let mut jobs = Vec::with_capacity(benches.len() * THREADS_COPIES);
        for _ in 0..THREADS_COPIES {
            let mut copy: Vec<usize> = (0..benches.len()).collect();
            shuffle(&mut copy, &mut rng);
            jobs.extend(copy);
        }
        Ok(ThreadsP2 {
            analysis,
            seq_cfg,
            threads_cfg,
            benches,
            jobs,
        })
    }
}

impl Workload for ThreadsP2 {
    fn pass_len(&self) -> usize {
        self.jobs.len()
    }

    /// Nine shuffled copies of the benchmark list.
    fn batch_len(&self) -> usize {
        9 * self.benches.len()
    }

    fn job_name(&self, i: usize) -> String {
        self.benches[self.jobs[i]].name.to_string()
    }

    fn run_job(&self, i: usize, tr: &mut Tracer) -> JobRecord {
        let bench = &self.benches[self.jobs[i]];
        let program = &bench.program;
        let mut rec = JobRecord::default();
        let start = Instant::now();
        tr.begin("job");
        let labeled = label_through(&self.analysis, program, tr);
        let runs = labeled.as_ref().map_err(Clone::clone).map(|(labeled, _)| {
            let t = Instant::now();
            let seq = tr.span("ir.seq", |_| {
                run_program_sequential(program, labeled, &self.seq_cfg)
            });
            rec.seq_ns = nanos(t);
            let mut threaded = |mode| {
                let t = Instant::now();
                let out = tr.span("specsim.threads", |_| {
                    simulate_program(program, labeled, mode, &self.threads_cfg)
                });
                (out.map_err(|e| format!("{mode:?}: {e}")), nanos(t))
            };
            let (case, case_ns) = threaded(ExecMode::Case);
            let (hose, hose_ns) = threaded(ExecMode::Hose);
            rec.case_ns = case_ns;
            rec.sim_ns = case_ns + hose_ns;
            (seq.map_err(|e| format!("sequential: {e}")), case, hose)
        });
        tr.end();
        rec.ns = nanos(start);

        let finished = (|| {
            let (labeled, hits) = labeled?;
            let (seq, case, hose) = runs?;
            Ok::<_, String>((labeled, hits, seq?, case?, hose?))
        })();
        match finished {
            Ok((labeled, hits, seq, case, hose)) => {
                let ignored = &bench.ignored;
                rec.failure = check("sequential", &bench.oracle, &seq.memory, ignored)
                    .or_else(|| check("Case", &bench.oracle, &case.memory, ignored))
                    .or_else(|| check("Hose", &bench.oracle, &hose.memory, ignored));
                rec.tally.add_labels(&labeled, &hits);
                rec.tally.add_dyn(&dyn_stats(&labeled, &seq));
                rec.tally.add_sim(&case.report);
                rec.tally.add_sim(&hose.report);
                rec.tally
                    .add_speedup(ExecMode::Case, bench.sim_case_speedup);
                rec.tally
                    .add_speedup(ExecMode::Hose, bench.sim_hose_speedup);
            }
            Err(e) => rec.failure = Some(e),
        }
        rec
    }
}
