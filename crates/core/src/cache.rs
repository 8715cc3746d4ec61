//! A keyed, shareable cache of completed region analyses — the analysis-side
//! counterpart of [`refidem_ir::lowered::LoweredCache`].
//!
//! Reference-idempotency analysis is a pure function of (procedure, region):
//! procedures are immutable after construction, so a `(Procedure::uid`,
//! region label`)` pair fully determines the
//! [`RegionAnalysis`](refidem_analysis::region::RegionAnalysis) and the
//! [`Labeling`](crate::label::Labeling) derived from it. That makes the
//! bundle safe to compute once and share process-wide — capacity ladders,
//! processor sweeps, differential suites and chaos schedules all re-label
//! the *same* regions over and over, and with this cache they analyze once
//! per (procedure × region) instead of once per point.
//!
//! Like `LoweredCache`, the cache is a thin typed wrapper over the shared
//! [`BoundedLru`]: a cheap `Clone` handle over shared storage, a
//! process-global [`Default`], [`fresh`](AnalysisCache::fresh) isolation for
//! tests, a size-bounded LRU with eviction counters, and (in debug builds) a
//! structural fingerprint in the key that enforces the
//! procedures-are-immutable convention.

use std::sync::{Arc, OnceLock};

use refidem_analysis::region::AnalysisError;
use refidem_ir::ids::ProcId;
use refidem_ir::lru::BoundedLru;
use refidem_ir::program::{Procedure, Program, RegionSpec};

use crate::label::{label_program_region, LabeledProgram, LabeledRegion};

/// Identity of one cached analysis: which procedure (by process-unique
/// [`Procedure::uid`]) and which region (by loop label) it covers.
///
/// In debug builds the key also carries a structural fingerprint of the
/// procedure (the same [`fingerprint_procedure`] the lowering cache uses),
/// so a procedure mutated in place maps to a new key and re-analyzes
/// instead of serving a stale summary.
///
/// [`fingerprint_procedure`]: refidem_ir::lowered::fingerprint_procedure
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisKey {
    /// Process-unique identity of the procedure.
    pub proc_uid: u64,
    /// Loop label of the analyzed region.
    pub region: String,
    /// Structural fingerprint guarding against in-place mutation.
    #[cfg(debug_assertions)]
    pub fingerprint: u64,
}

impl AnalysisKey {
    /// Builds the key for analyzing region `region` of `proc`.
    pub fn new(proc: &Procedure, region: impl Into<String>) -> Self {
        AnalysisKey {
            proc_uid: proc.uid(),
            region: region.into(),
            #[cfg(debug_assertions)]
            fingerprint: refidem_ir::lowered::fingerprint_procedure(&proc.vars, &proc.body),
        }
    }
}

/// Per-call outcome of an [`AnalysisCache::lookup`]: the labeled region
/// plus exactly what this call did to the cache, so callers can attribute
/// hit/miss/eviction counts to a single run without racing other threads
/// on the shared lifetime counters.
#[derive(Clone, Debug)]
pub struct AnalysisLookup {
    /// The analyzed and labeled region (cached or freshly analyzed).
    pub region: Arc<LabeledRegion>,
    /// True when the bundle was served from the cache.
    pub hit: bool,
    /// Entries this call evicted to make room (0 on a hit).
    pub evicted: u64,
}

/// Per-run attribution of one compile-once cache's traffic — analysis
/// lookups here, lowering lookups in the simulator — accumulated by
/// counting lookup outcomes (exact under concurrent users of a shared
/// cache, unlike diffing the lifetime counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisTally {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted by this run's inserts.
    pub evictions: u64,
}

impl AnalysisTally {
    /// Folds one lookup outcome (hit or miss, and the entries it evicted)
    /// into the tally.
    pub fn count(&mut self, hit: bool, evicted: u64) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.evictions += evicted;
    }
}

/// A keyed, shareable cache of completed region analyses (summary *and*
/// derived labeling) — what makes repeated labelings of the same region
/// (capacity ladders, differential suites, chaos schedules) *analyze once
/// and iterate cheap*.
///
/// A thin typed wrapper over the shared [`BoundedLru`], whose methods it
/// exposes through `Deref` (counters, capacity, `clear`). The cache is a
/// cheap handle (`Clone` shares the underlying storage);
/// [`AnalysisCache::default`] returns the **process-global** cache, so two
/// independently-constructed `SimConfig`s — e.g. one per capacity point of
/// a sweep — still share analyses. Use [`AnalysisCache::fresh`] for an
/// isolated cache (tests, one-shot generated programs).
///
/// The default bound ([`AnalysisCache::DEFAULT_CAPACITY`]) is deliberately
/// generous — far above what the benchmark suite and the differential
/// corpus populate — so ordinary workloads never observe an eviction (a
/// property the test suite asserts).
///
/// Cached bundles are shared behind `Arc` and must be treated as
/// immutable; a caller that wants to mutate a labeling (e.g. tamper
/// testing) must clone the bundle out of the `Arc` first.
///
/// ```
/// use refidem_core::cache::{AnalysisCache, AnalysisKey};
/// use refidem_core::label::label_program_region;
/// use refidem_ir::build::{ac, av, num, ProcBuilder};
/// use refidem_ir::program::Program;
///
/// let mut b = ProcBuilder::new("p");
/// let a = b.array("a", &[8]);
/// let k = b.index("k");
/// b.live_out(&[a]);
/// let s = b.assign_elem(a, vec![av(k)], num(1.0));
/// let body = vec![b.do_loop_labeled("L", k, ac(1), ac(8), vec![s])];
/// let mut program = Program::new("toy");
/// program.add_procedure(b.build(body));
///
/// let cache = AnalysisCache::fresh();
/// let spec = program.find_region("L").unwrap();
/// let first = cache.label_region_cached(&program, &spec).unwrap();
/// assert!(!first.hit, "first lookup analyzes");
/// let second = cache.label_region_cached(&program, &spec).unwrap();
/// assert!(second.hit, "second lookup reuses the analysis");
/// assert!(std::sync::Arc::ptr_eq(&first.region, &second.region));
/// assert_eq!(cache.stats(), (1, 1)); // (hits, misses)
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisCache(BoundedLru<AnalysisKey, LabeledRegion>);

impl std::ops::Deref for AnalysisCache {
    type Target = BoundedLru<AnalysisKey, LabeledRegion>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Default for AnalysisCache {
    /// The **process-global** cache handle (see the type-level docs).
    fn default() -> Self {
        static GLOBAL: OnceLock<AnalysisCache> = OnceLock::new();
        GLOBAL.get_or_init(AnalysisCache::fresh).clone()
    }
}

impl AnalysisCache {
    /// Default entry bound: far above the handful of (procedure, region)
    /// pairs the benchmark suite and a differential corpus run analyze, so
    /// only a deliberately long-lived process with an unbounded stream of
    /// *distinct* procedures ever evicts.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty cache that shares storage with nothing else, bounded
    /// at [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY) entries.
    pub fn fresh() -> Self {
        AnalysisCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty, isolated cache holding at most `capacity` entries
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache(BoundedLru::with_capacity(capacity))
    }

    /// The process-global cache (same handle [`Default`] returns).
    pub fn global() -> Self {
        AnalysisCache::default()
    }

    /// Returns the cached bundle for `key`, computing it with `analyze` on
    /// a miss, along with exactly what this call did to the cache (see
    /// [`BoundedLru::try_get_or_insert_with`]: analysis runs outside the
    /// lock, and a failed analysis is returned as-is and never cached).
    pub fn lookup(
        &self,
        key: AnalysisKey,
        analyze: impl FnOnce() -> Result<LabeledRegion, AnalysisError>,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let found = self.try_get_or_insert_with(key, analyze)?;
        Ok(AnalysisLookup {
            region: found.value,
            hit: found.hit,
            evicted: found.evicted,
        })
    }

    /// Analyzes and labels the region designated by `spec` through the
    /// cache — the cached counterpart of [`label_program_region`].
    pub fn label_region_cached(
        &self,
        program: &Program,
        spec: &RegionSpec,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let key = AnalysisKey::new(program.procedure(spec.proc), spec.loop_label.clone());
        self.lookup(key, || label_program_region(program, spec))
    }

    /// Analyzes and labels the region whose loop label is `label` through
    /// the cache — the cached counterpart of
    /// [`label_program_region_by_name`](crate::label::label_program_region_by_name).
    pub fn label_region_by_name_cached(
        &self,
        program: &Program,
        label: &str,
    ) -> Result<AnalysisLookup, AnalysisError> {
        let spec = program
            .find_region(label)
            .ok_or_else(|| AnalysisError::RegionNotFound(label.to_string()))?;
        self.label_region_cached(program, &spec)
    }

    /// Discovers, analyzes and labels every region of `proc` through the
    /// cache — the cached counterpart of
    /// [`label_program`](crate::label::label_program). Returns the labeled
    /// program plus this call's attributed cache traffic.
    pub fn label_program_cached(
        &self,
        program: &Program,
        proc: ProcId,
    ) -> Result<(LabeledProgram, AnalysisTally), AnalysisError> {
        let schedule = refidem_analysis::schedule::discover_regions(program, proc);
        // Mirror `label_program`'s duplicate-label rejection: a `RegionSpec`
        // resolves first-match, so duplicate labels would silently run the
        // second loop under the first loop's analysis.
        let mut seen = std::collections::BTreeSet::new();
        for r in &schedule.regions {
            if !seen.insert(r.spec.loop_label.as_str()) {
                return Err(AnalysisError::DuplicateRegionLabel(
                    r.spec.loop_label.clone(),
                ));
            }
        }
        let mut tally = AnalysisTally::default();
        let regions = schedule
            .regions
            .iter()
            .map(|r| {
                let lookup = self.label_region_cached(program, &r.spec)?;
                tally.count(lookup.hit, lookup.evicted);
                Ok(LabeledRegion::clone(&lookup.region))
            })
            .collect::<Result<Vec<_>, AnalysisError>>()?;
        Ok((
            LabeledProgram {
                proc,
                schedule,
                regions,
            },
            tally,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, av, num, ProcBuilder};
    use refidem_ir::ids::ProcId;

    /// A two-region program: `R1` writes `a(k)`, `R2` writes `b(k)`.
    fn two_region_program() -> Program {
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[8]);
        let bb = b.array("b", &[8]);
        let k = b.index("k");
        b.live_out(&[a, bb]);
        let s1 = b.assign_elem(a, vec![av(k)], num(1.0));
        let r1 = b.do_loop_labeled("R1", k, ac(1), ac(8), vec![s1]);
        let s2 = b.assign_elem(bb, vec![av(k)], num(2.0));
        let r2 = b.do_loop_labeled("R2", k, ac(1), ac(8), vec![s2]);
        let mut program = Program::new("two");
        program.add_procedure(b.build(vec![r1, r2]));
        program
    }

    #[test]
    fn distinct_regions_get_distinct_entries() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let (labeled, tally) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        assert_eq!(labeled.regions.len(), 2);
        assert_eq!(cache.len(), 2, "one entry per region");
        assert_eq!(
            tally,
            AnalysisTally {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
        // Re-labeling the same program hits both entries.
        let (_, tally) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        assert_eq!(
            tally,
            AnalysisTally {
                hits: 2,
                misses: 0,
                evictions: 0
            }
        );
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn cached_and_fresh_labelings_are_identical() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let (cached, _) = cache
            .label_program_cached(&program, ProcId::from_index(0))
            .expect("labels");
        let fresh = crate::label::label_program(&program, ProcId::from_index(0)).expect("labels");
        for (c, f) in cached.regions.iter().zip(&fresh.regions) {
            assert_eq!(c.labeling, f.labeling);
            assert_eq!(c.analysis.deps, f.analysis.deps);
            assert_eq!(c.analysis.fully_independent, f.analysis.fully_independent);
        }
    }

    #[test]
    fn a_hit_clone_shares_storage_with_the_cached_entry() {
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let spec = program.find_region("R1").expect("region");
        let cached = cache.label_region_cached(&program, &spec).expect("labels");
        let hit = cache.label_region_cached(&program, &spec).expect("labels");
        assert!(hit.hit);
        // What every cache user does with a hit: clone the bundle out.
        let clone = LabeledRegion::clone(&hit.region);
        let (a, b) = (&cached.region.analysis, &clone.analysis);
        assert!(std::ptr::eq(a.table.sites(), b.table.sites()));
        assert!(std::ptr::eq(a.deps.facts(), b.deps.facts()));
        assert!(Arc::ptr_eq(&a.loop_stmt, &b.loop_stmt));
        assert_eq!(clone.labeling, cached.region.labeling);
    }

    #[test]
    fn mutating_a_hit_clone_copies_instead_of_reaching_the_cache() {
        use crate::label::{label_region, Label};
        let cache = AnalysisCache::fresh();
        let program = two_region_program();
        let spec = program.find_region("R1").expect("region");
        let fresh = label_region(
            &cache
                .label_region_cached(&program, &spec)
                .unwrap()
                .region
                .analysis,
        );
        let mut clone =
            LabeledRegion::clone(&cache.label_region_cached(&program, &spec).unwrap().region);
        assert!(clone
            .labeling
            .is_idempotent(clone.analysis.table.sites()[0].id));
        clone
            .labeling
            .retain_idempotent(&std::collections::BTreeSet::new());
        for site in clone.analysis.table.sites() {
            clone.labeling.override_label(site.id, Label::Speculative);
        }
        assert_ne!(clone.labeling, fresh);
        let again = cache.label_region_cached(&program, &spec).expect("labels");
        assert!(again.hit);
        assert_eq!(
            again.region.labeling, fresh,
            "the cached labeling is untouched"
        );
        assert_eq!(label_region(&again.region.analysis), fresh);
    }

    #[test]
    fn the_global_is_shared_at_the_default_capacity() {
        assert_eq!(AnalysisCache::default(), AnalysisCache::global());
        assert_ne!(AnalysisCache::fresh(), AnalysisCache::global());
        assert_eq!(
            AnalysisCache::fresh().capacity(),
            AnalysisCache::DEFAULT_CAPACITY
        );
    }
}
