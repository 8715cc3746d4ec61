//! Differential tests of the per-sink dependence summary: the facts the
//! compile path computes sink by sink ([`SinkSummary::analyze`], stopping
//! at the first cross-segment source) must be exactly what the full
//! dependence enumeration ([`DependenceSet::analyze`]) implies, and the
//! labels, `fully_independent` and `compiler_parallelizable` must equal
//! what Algorithm 2 decides when it reads the full set directly.
//!
//! Inputs: the 1024-program corpus (WHILE regions included), the
//! `compile_cold` tuning of the benchmark, every named benchmark loop, the
//! synthetic giant block at 128 and 256 statements over several seeds, and
//! the abstract regions of the paper's Figures 1–3.

use refidem_analysis::classify::VarClass;
use refidem_analysis::depend::{DepKind, DepScope, DependenceSet, SinkSummary};
use refidem_benchmarks::{all_named_loops, examples};
use refidem_core::label::{label_abstract_region, label_program_region, IdemCategory, Label};
use refidem_core::model::AbstractRegion;
use refidem_core::rfw::{rfw_for_abstract, rfw_for_loop_region};
use refidem_ir::ids::{RefId, VarId};
use refidem_ir::program::{Program, RegionSpec};
use refidem_ir::sites::AccessKind;
use refidem_testkit::{generate, generate_with, giant_block, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The intra-segment sources the labeling reads for `sink`, straight from
/// the full set: the flow and output sources, none for a cross-segment
/// sink.
fn expected_sources(deps: &DependenceSet, sink: RefId) -> Vec<RefId> {
    if deps.is_sink_of_cross_segment(sink) {
        return Vec::new();
    }
    let mut sources: Vec<RefId> = deps
        .deps_into(sink)
        .filter(|d| d.scope == DepScope::IntraSegment && d.kind != DepKind::Anti)
        .map(|d| d.source)
        .collect();
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// Algorithm 2's dependence conditions evaluated on the full set, as the
/// labeler read them before the summary existed: a write is
/// shared-dependent when it is RFW, no cross-segment sink, and every
/// intra-segment output source is idempotent; a read when it is the sink
/// of no dependence, or of intra-segment dependences only with every
/// source idempotent.
fn reference_labels(
    sites: &[(RefId, VarId, AccessKind)],
    deps: &DependenceSet,
    read_only: &BTreeSet<VarId>,
    private: &BTreeSet<VarId>,
    rfw: &BTreeSet<RefId>,
    fully_independent: bool,
) -> BTreeMap<RefId, Label> {
    if fully_independent {
        return sites
            .iter()
            .map(|s| (s.0, Label::Idempotent(IdemCategory::FullyIndependent)))
            .collect();
    }
    let mut labels: BTreeMap<RefId, Label> = BTreeMap::new();
    for &(id, var, _) in sites {
        let label = if read_only.contains(&var) {
            Label::Idempotent(IdemCategory::ReadOnly)
        } else if private.contains(&var) {
            Label::Idempotent(IdemCategory::Private)
        } else {
            Label::Speculative
        };
        labels.insert(id, label);
    }
    let idempotent = |labels: &BTreeMap<RefId, Label>, r: RefId| {
        labels.get(&r).is_some_and(Label::is_idempotent)
    };
    for &(id, _, access) in sites {
        if access != AccessKind::Write || idempotent(&labels, id) {
            continue;
        }
        if rfw.contains(&id)
            && !deps.is_sink_of_cross_segment(id)
            && deps.deps_into(id).all(|d| {
                d.scope != DepScope::IntraSegment
                    || d.kind != DepKind::Output
                    || idempotent(&labels, d.source)
            })
        {
            labels.insert(id, Label::Idempotent(IdemCategory::SharedDependent));
        }
    }
    for &(id, _, access) in sites {
        if access != AccessKind::Read || idempotent(&labels, id) {
            continue;
        }
        let mut any = false;
        let mut cross = false;
        let mut sources_idempotent = true;
        for d in deps.deps_into(id) {
            any = true;
            match d.scope {
                DepScope::CrossSegment => cross = true,
                DepScope::IntraSegment => sources_idempotent &= idempotent(&labels, d.source),
            }
        }
        if !any || (!cross && sources_idempotent) {
            labels.insert(id, Label::Idempotent(IdemCategory::SharedDependent));
        }
    }
    labels
}

/// What one check saw, summed over a family of inputs.
#[derive(Default)]
struct Seen {
    regions: usize,
    while_regions: usize,
    cross_sinks: usize,
    intra_sources: usize,
}

/// Checks one loop region: per-site cross bits and intra-source sets, the
/// summary as a whole, both region flags, and every label.
fn check_region(what: &str, program: &Program, spec: &RegionSpec, seen: &mut Seen) {
    let labeled = label_program_region(program, spec).expect("analyzes");
    let analysis = &labeled.analysis;
    let deps = DependenceSet::analyze(
        &program.procedure(spec.proc).vars,
        &analysis.loop_stmt,
        &analysis.table,
    );
    let summary = &analysis.deps;
    for site in analysis.table.sites() {
        assert_eq!(
            summary.is_sink_of_cross_segment(site.id),
            deps.is_sink_of_cross_segment(site.id),
            "{what}: cross bit of {}",
            site.id
        );
        assert_eq!(
            summary.intra_sources(site.id),
            expected_sources(&deps, site.id).as_slice(),
            "{what}: intra sources of {}",
            site.id
        );
    }
    assert_eq!(*summary, SinkSummary::from_deps(&deps), "{what}: summary");

    let is_while = analysis.loop_stmt.while_cond.is_some();
    let private = |v: VarId| analysis.classes.class(v) == VarClass::Private;
    assert_eq!(
        analysis.fully_independent,
        !is_while && !deps.has_cross_segment_deps(),
        "{what}: fully_independent"
    );
    let shared_cross = deps.deps().iter().any(|d| {
        d.scope == DepScope::CrossSegment
            && analysis
                .table
                .get(d.sink)
                .map_or(true, |site| !private(site.var))
    });
    assert_eq!(
        analysis.compiler_parallelizable,
        !is_while && !shared_cross,
        "{what}: compiler_parallelizable"
    );

    let sites: Vec<(RefId, VarId, AccessKind)> = analysis
        .table
        .sites()
        .iter()
        .map(|s| (s.id, s.var, s.access))
        .collect();
    let class_set = |class: VarClass| -> BTreeSet<VarId> {
        analysis
            .classes
            .iter()
            .filter(|(_, c)| *c == class)
            .map(|(v, _)| v)
            .collect()
    };
    let expected = reference_labels(
        &sites,
        &deps,
        &class_set(VarClass::ReadOnly),
        &class_set(VarClass::Private),
        &rfw_for_loop_region(analysis),
        analysis.fully_independent,
    );
    for (&id, &label) in &expected {
        assert_eq!(labeled.labeling.label(id), label, "{what}: label of {id}");
    }
    assert_eq!(
        labeled.labeling.len(),
        expected.len(),
        "{what}: labeled sites"
    );

    seen.regions += 1;
    seen.while_regions += is_while as usize;
    seen.cross_sinks += summary.facts().iter().filter(|f| f.cross).count();
    seen.intra_sources += summary
        .facts()
        .iter()
        .map(|f| summary.intra_sources(f.sink).len())
        .sum::<usize>();
}

#[test]
fn the_corpus_summarizes_like_the_full_enumeration() {
    let mut seen = Seen::default();
    for seed in 0..1024u64 {
        let g = generate(seed);
        for spec in &g.regions {
            check_region(
                &format!("seed {seed} {}", spec.loop_label),
                &g.program,
                spec,
                &mut seen,
            );
        }
    }
    assert!(seen.regions >= 1024, "only {} regions", seen.regions);
    assert!(
        seen.while_regions >= 32,
        "only {} WHILE regions",
        seen.while_regions
    );
    assert!(seen.cross_sinks > 0);
    assert!(
        seen.intra_sources > 0,
        "no intra-segment source was exercised"
    );
}

#[test]
fn the_compile_cold_tuning_summarizes_like_the_full_enumeration() {
    // The generator tuning of the benchmark's compile_cold workload:
    // longer bodies and trip counts than the corpus defaults.
    let cfg = GenConfig {
        max_stmts: 12,
        min_trips: 8,
        max_trips: 48,
        while_pct: 0,
        ..GenConfig::default()
    };
    let mut seen = Seen::default();
    for seed in 0..256u64 {
        let g = generate_with(seed, &cfg);
        for spec in &g.regions {
            check_region(
                &format!("seed {seed} {}", spec.loop_label),
                &g.program,
                spec,
                &mut seen,
            );
        }
    }
    assert!(seen.regions >= 256, "only {} regions", seen.regions);
    assert!(
        seen.intra_sources > 0,
        "no intra-segment source was exercised"
    );
}

#[test]
fn every_named_loop_summarizes_like_the_full_enumeration() {
    let mut seen = Seen::default();
    for bench in all_named_loops() {
        check_region(bench.name, &bench.program, &bench.region, &mut seen);
    }
    assert!(seen.regions >= 14);
    assert!(
        seen.intra_sources > 0,
        "no intra-segment source was exercised"
    );
}

#[test]
fn giant_blocks_summarize_like_the_full_enumeration() {
    let mut seen = Seen::default();
    for stmts in [128, 256] {
        for seed in [0, 1, 7, 0x9e37_79b9] {
            let (program, spec) = giant_block(seed, stmts);
            check_region(
                &format!("giant_block({seed}, {stmts})"),
                &program,
                &spec,
                &mut seen,
            );
        }
    }
    assert!(seen.cross_sinks > 0);
}

/// Checks an abstract region: the summary derived from its explicit set
/// against that set, and its labels against the full-set conditions.
fn check_abstract(region: &AbstractRegion) {
    let deps = region.compute_deps();
    let summary = SinkSummary::from_deps(&deps);
    let sites: Vec<(RefId, VarId, AccessKind)> = region
        .all_refs()
        .map(|(_, r)| (r.id, r.var, r.access))
        .collect();
    for &(id, _, _) in &sites {
        assert_eq!(
            summary.is_sink_of_cross_segment(id),
            deps.is_sink_of_cross_segment(id),
            "{}: cross bit of {id}",
            region.name
        );
        assert_eq!(
            summary.intra_sources(id),
            expected_sources(&deps, id).as_slice(),
            "{}: intra sources of {id}",
            region.name
        );
    }
    let labeling = label_abstract_region(region);
    let expected = reference_labels(
        &sites,
        &deps,
        &region.read_only_vars(),
        &region.private_vars(),
        &rfw_for_abstract(region),
        region.fully_independent(),
    );
    for (&id, &label) in &expected {
        assert_eq!(labeling.label(id), label, "{}: label of {id}", region.name);
    }
    assert_eq!(labeling.len(), expected.len());
}

#[test]
fn the_paper_figures_summarize_like_the_full_enumeration() {
    for region in [
        examples::figure1(),
        examples::figure2(),
        examples::figure3(),
    ] {
        check_abstract(&region);
    }
}
