//! The one-region sequential baseline is the whole-program baseline on a
//! one-region schedule: `run_sequential` must report exactly what
//! `run_program_sequential` reports for a `LabeledProgram` whose schedule
//! holds only that region — the same final memory bits, the same region
//! cycles and the same per-site counts — on every execution backend. And a
//! region whose speculative run the governor degrades must end with the
//! memory of that same baseline, bit for bit.

use refidem_analysis::schedule::{DiscoveredRegion, RegionSchedule};
use refidem_benchmarks::all_named_loops;
use refidem_core::label::{label_program, label_program_region, LabeledProgram, LabeledRegion};
use refidem_ir::ids::ProcId;
use refidem_ir::lowered::ExecBackend;
use refidem_ir::memory::{Addr, Memory};
use refidem_ir::program::Program;
use refidem_ir::stmt::Stmt;
use refidem_specsim::{
    run_program_sequential, run_sequential, simulate_program, ExecMode, FaultPlan, Governor,
    SimConfig, SpecRuntime,
};
use refidem_testkit::generate;

const BACKENDS: [ExecBackend; 3] = [
    ExecBackend::TreeWalk,
    ExecBackend::Lowered,
    ExecBackend::Fused,
];

/// Generated single-region programs checked per backend.
const GENERATED: usize = 64;

fn bits(memory: &Memory) -> Vec<u64> {
    (0..memory.len())
        .map(|w| memory.load(Addr(w as u64)).to_bits())
        .collect()
}

/// The schedule holding only `region`, around whatever else the procedure
/// contains.
fn one_region_program(program: &Program, region: &LabeledRegion) -> LabeledProgram {
    let spec = &region.analysis.spec;
    let body = &program.procedures[spec.proc.index()].body;
    let stmt_index = body
        .iter()
        .position(
            |s| matches!(s, Stmt::Loop(l) if l.label.as_deref() == Some(spec.loop_label.as_str())),
        )
        .expect("region is a top-level loop");
    LabeledProgram {
        proc: spec.proc,
        schedule: RegionSchedule {
            proc: spec.proc,
            body_len: body.len(),
            regions: vec![DiscoveredRegion {
                spec: spec.clone(),
                stmt_index,
            }],
        },
        regions: vec![region.clone()],
    }
}

/// Every named benchmark loop, then the first [`GENERATED`] generated
/// programs with exactly one region.
fn corpus() -> Vec<(String, Program, LabeledProgram)> {
    let mut out = Vec::new();
    for lb in all_named_loops() {
        let region = label_program_region(&lb.program, &lb.region).expect("named loop labels");
        let labeled = one_region_program(&lb.program, &region);
        out.push((lb.name.to_string(), lb.program, labeled));
    }
    let mut generated = 0;
    for seed in 0.. {
        if generated == GENERATED {
            break;
        }
        let g = generate(seed);
        if g.regions.len() != 1 {
            continue;
        }
        let labeled = label_program(&g.program, ProcId::from_index(0)).expect("generated labels");
        assert_eq!(labeled.len(), 1, "seed {seed}");
        out.push((format!("seed {seed}"), g.program, labeled));
        generated += 1;
    }
    out
}

#[test]
fn run_sequential_is_the_one_region_program_baseline() {
    for (name, program, labeled) in corpus() {
        for backend in BACKENDS {
            let cfg = SimConfig::default().backend(backend);
            let one = run_sequential(&program, &labeled.regions[0], &cfg)
                .unwrap_or_else(|e| panic!("{name} {backend:?}: {e}"));
            let all = run_program_sequential(&program, &labeled, &cfg)
                .unwrap_or_else(|e| panic!("{name} {backend:?}: {e}"));
            assert_eq!(bits(&one.memory), bits(&all.memory), "{name} {backend:?}");
            assert_eq!(
                vec![one.region_cycles],
                all.region_cycles,
                "{name} {backend:?}"
            );
            assert_eq!(
                vec![one.region_counts],
                all.region_counts,
                "{name} {backend:?}"
            );
        }
    }
}

#[test]
fn a_degraded_region_ends_bit_identical_to_the_sequential_baseline() {
    // Every non-head attempt is squashed and a restart budget of zero trips
    // on the first one, so every region with more than one segment in
    // flight re-executes serially.
    let mut degraded = 0usize;
    for (name, program, labeled) in corpus() {
        for backend in BACKENDS {
            for runtime in [SpecRuntime::Simulated, SpecRuntime::Threads] {
                let cfg = SimConfig {
                    processors: 4,
                    runtime,
                    faults: FaultPlan::seeded(7).violation_rate(1000),
                    governor: Governor::default().restart_budget(0),
                    ..SimConfig::default().backend(backend)
                };
                let seq = run_sequential(&program, &labeled.regions[0], &cfg)
                    .unwrap_or_else(|e| panic!("{name} {backend:?}: {e}"));
                for mode in [ExecMode::Hose, ExecMode::Case] {
                    let sim = simulate_program(&program, &labeled, mode, &cfg)
                        .unwrap_or_else(|e| panic!("{name} {backend:?} {runtime:?} {mode}: {e}"));
                    if sim.report.regions[0].degraded.is_none() {
                        continue;
                    }
                    if runtime == SpecRuntime::Simulated {
                        degraded += 1;
                    }
                    assert_eq!(
                        bits(&sim.memory),
                        bits(&seq.memory),
                        "{name} {backend:?} {runtime:?} {mode}"
                    );
                }
            }
        }
    }
    assert!(degraded > 0, "no simulated region degraded");
}
