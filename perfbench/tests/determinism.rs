//! Same seed, same inputs, same deterministic results; another seed,
//! another `compile_cold` corpus. Run with `--release`: one pass of
//! `compile_cold` analyzes eighty 256-statement giant blocks.

use refidem_perfbench::workload::{setup, Kind};
use refidem_perfbench::{run, RunOptions, RunReport, END_TO_END, PER_LAYER};

fn job_names(kind: Kind, seed: u64) -> Vec<String> {
    let w = setup(kind, seed).expect("sets up");
    (0..w.pass_len()).map(|i| w.job_name(i)).collect()
}

/// The shortest run: one pass untraced, two traced.
fn shortest_run(kind: Kind, seed: u64, trace: bool) -> RunReport {
    run(RunOptions {
        workload: kind,
        seed,
        seconds: 0.0,
        trace,
    })
    .expect("runs")
}

fn bits(r: &RunReport, name: &str) -> u64 {
    r.metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .to_bits()
}

#[test]
fn the_same_seed_gives_the_same_job_list() {
    for kind in Kind::ALL {
        let names = job_names(kind, 7);
        assert!(names.len() >= 1000, "{kind}: at least 1000 jobs a pass");
        assert_eq!(names, job_names(kind, 7), "{kind}");
    }
}

#[test]
fn a_second_seed_changes_the_compile_cold_corpus() {
    assert_ne!(
        job_names(Kind::CompileCold, 7),
        job_names(Kind::CompileCold, 8)
    );
}

#[test]
fn deterministic_end_to_end_metrics_repeat_bit_for_bit() {
    for kind in Kind::ALL {
        let a = shortest_run(kind, 7, false);
        let b = shortest_run(kind, 7, false);
        assert_eq!(a.failed, 0, "{kind}: {:?}", a.failures);
        assert_eq!(a.job_names, b.job_names, "{kind}");
        assert_eq!(
            a.failed_frac().to_bits(),
            b.failed_frac().to_bits(),
            "{kind}"
        );
        for name in ["idem_ref_frac", "sim_case_speedup", "sim_hose_speedup"] {
            assert_eq!(bits(&a, name), bits(&b, name), "{kind} {name}");
        }
        let names: Vec<&str> = a.metrics.names().collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{kind}");
    }
}

#[test]
fn count_type_per_layer_metrics_repeat_exactly() {
    for kind in Kind::ALL {
        let a = shortest_run(kind, 7, true);
        let b = shortest_run(kind, 7, true);
        let names: Vec<&str> = a.metrics.names().collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{kind}");
        for (name, unit) in PER_LAYER {
            // Times are measured; the real-thread runtime's speculation
            // counts depend on how its two threads interleave.
            let timed = unit == "us" || name.starts_with("trace.");
            let racy = kind == Kind::ThreadsP2 && name.starts_with("specsim.");
            if !timed && !racy {
                assert_eq!(bits(&a, name), bits(&b, name), "{kind} {name}");
            }
        }
        if kind != Kind::ThreadsP2 {
            assert_eq!(a.first_pass, b.first_pass, "{kind}");
        }
    }
}

#[test]
fn every_layer_is_measured_on_the_workload_that_exercises_it() {
    let cold = shortest_run(Kind::CompileCold, 3, true);
    for name in [
        "analysis.discover_us",
        "analysis.region_us",
        "core.label_us",
        "ir.lower_us",
        "ir.fuse_us",
        "ir.seq_us",
        "specsim.simulate_us",
    ] {
        assert!(bits(&cold, name) != 0, "compile_cold {name}");
    }
    assert_eq!(cold.metrics.get("core.analysis_cache_hit_ratio"), Some(0.0));
    let threads = shortest_run(Kind::ThreadsP2, 3, true);
    assert!(threads.metrics.get("specsim.threads_us") > Some(0.0));
    assert_eq!(
        threads.metrics.get("core.analysis_cache_hit_ratio"),
        Some(1.0)
    );
}

/// `BENCHMARK.json` at the repository root names exactly the metrics
/// the benchmark prints, with the same units, and only workloads it knows.
#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads = &json[json.find("\"workloads\"").expect("workloads")
        ..json.find("\"end_to_end\"").expect("end_to_end")];
    let names: Vec<&str> = workloads
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in &names {
        name.parse::<Kind>().expect("a workload the benchmark runs");
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + names.len());
}
