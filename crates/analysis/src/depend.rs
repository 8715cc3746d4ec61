//! Reference-by-reference may-dependence analysis of a region.
//!
//! The paper assumes "data dependences of every reference in each region"
//! have been analyzed, as may-dependences, reference by reference
//! (Section 4). The labeling conditions only need to know, for every
//! reference site, whether it is the *sink* of a dependence and whether that
//! dependence crosses segments:
//!
//! * Lemma 3: the sink of a cross-segment dependence must be speculative.
//! * Theorem 1: an idempotent write must not be the sink of a cross-segment
//!   dependence.
//! * Theorem 2: an idempotent read must either be the sink of no dependence
//!   at all, or of an intra-segment dependence whose source is idempotent.
//!
//! With regions being loops and segments being iterations, cross-segment
//! dependences are exactly the dependences carried by the region loop, and
//! intra-segment dependences are the loop-independent dependences plus those
//! carried by inner loops. The tester below is a classical hierarchical
//! dependence test: for every ordered pair of references to the same
//! variable (at least one a write) and every dependence level, it checks
//! whether the subscript systems can be equal, using exact strong-SIV
//! solving where possible and conservative interval (Banerjee-style) plus
//! GCD reasoning otherwise. Indirect subscripts are treated as
//! may-dependent in every dimension, exactly as the paper treats `K(E)`.
//!
//! # Demand-driven testing
//!
//! Labeling reads only two facts per reference site, so the compile path
//! asks only those two questions. [`SinkSummary::analyze`] goes sink by
//! sink:
//!
//! * **Cross bit** — the site's candidate sources are tested at the region
//!   level only, and testing stops at the first cross-segment verdict.
//! * **Intra-segment write sources** — only for a site without the cross
//!   bit, its write sources (the flow sources of a read, the output
//!   sources of a write) are tested at the inner-loop and
//!   loop-independent levels. Anti sources into a write are never
//!   tested: no labeling condition reads them.
//!
//! Both verdicts are memoized per canonical pair of access signatures, in
//! the spirit of Maydan, Hennessy & Lam, "Efficient and Exact Data
//! Dependence Analysis" (PLDI 1991). The cross verdict depends only on
//! the two signatures, so its memo key is `(sig_a, sig_b)`. The intra
//! verdict also needs `a.order < b.order`, which gates the
//! loop-independent level. The hundreds of same-shape references of a
//! giant straight-line block (FPPPP's `TWLDRV_DO100`) then pay for a
//! handful of distinct tests.
//!
//! Two more steps keep the summary's pair loop small:
//!
//! * **Partition by base variable** — references to different variables
//!   never alias under the layout, so cross-variable pairs are never
//!   considered, and a variable with no write site skips testing
//!   entirely.
//! * **Flat site arena** — per-site facts the tester would recompute per
//!   pair per level (the [`IndexBounds`] walk and the parameter-folded
//!   affine view of every subscript) are computed once per distinct
//!   signature.
//!
//! [`DependenceSet::analyze`] is the full enumeration: every ordered pair
//! tested at every level, with no partition, interning or memo, and every
//! dependence emitted with its kind and distance. It shares only the level
//! tests with the summary, so it is the reference the summary is tested
//! against, and what diagnostics print. [`SinkSummary::from_deps`] derives
//! the summary from any explicit set (the abstract regions of the paper's
//! Figures 1–3, or the reference enumeration).

use crate::bounds::IndexBounds;
use refidem_ir::affine::{gcd, AffineExpr};
use refidem_ir::ids::{RefId, StmtId, VarId};
use refidem_ir::sites::{AccessKind, LoopContext, RefSite, RefTable};
use refidem_ir::stmt::{LoopStmt, Stmt};
use refidem_ir::var::VarTable;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The kind of a data dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// Whether the dependence stays within one segment or crosses segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepScope {
    /// Source and sink execute in the same segment (loop-independent or
    /// carried by an inner loop).
    IntraSegment,
    /// Source executes in an older segment than the sink (carried by the
    /// region loop).
    CrossSegment,
}

/// One may-dependence between two reference sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// The earlier reference (in sequential execution order).
    pub source: RefId,
    /// The later reference.
    pub sink: RefId,
    /// Flow, anti or output.
    pub kind: DepKind,
    /// Intra- or cross-segment.
    pub scope: DepScope,
    /// Region-loop iteration distance, when it could be determined exactly
    /// (cross-segment dependences only).
    pub distance: Option<i64>,
}

/// The set of may-dependences of one region.
///
/// The contents are shared copy-on-write: `clone` bumps reference counts,
/// and adding a dependence copies only a set that is still shared.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DependenceSet {
    deps: Arc<Vec<Dependence>>,
    sink_index: Arc<BTreeMap<RefId, Vec<usize>>>,
    source_index: Arc<BTreeMap<RefId, Vec<usize>>>,
}

impl DependenceSet {
    /// Builds a dependence set from an explicit list of dependences. Used by
    /// front-ends (e.g. the abstract segment-graph regions of the paper's
    /// Figures 1–3) that compute dependences themselves.
    pub fn from_deps(deps: Vec<Dependence>) -> Self {
        let mut out = DependenceSet::default();
        for d in deps {
            out.push(d);
        }
        out
    }

    /// All dependences.
    pub fn deps(&self) -> &[Dependence] {
        &self.deps
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True when the region has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    fn push(&mut self, d: Dependence) {
        let idx = self.deps.len();
        Arc::make_mut(&mut self.sink_index)
            .entry(d.sink)
            .or_default()
            .push(idx);
        Arc::make_mut(&mut self.source_index)
            .entry(d.source)
            .or_default()
            .push(idx);
        Arc::make_mut(&mut self.deps).push(d);
    }

    /// Dependences whose sink is `r`.
    pub fn deps_into(&self, r: RefId) -> impl Iterator<Item = &Dependence> {
        self.sink_index
            .get(&r)
            .into_iter()
            .flatten()
            .map(move |&i| &self.deps[i])
    }

    /// Dependences whose source is `r`.
    pub fn deps_from(&self, r: RefId) -> impl Iterator<Item = &Dependence> {
        self.source_index
            .get(&r)
            .into_iter()
            .flatten()
            .map(move |&i| &self.deps[i])
    }

    /// True when `r` is the sink of a cross-segment dependence (Lemma 3's
    /// condition).
    pub fn is_sink_of_cross_segment(&self, r: RefId) -> bool {
        self.deps_into(r).any(|d| d.scope == DepScope::CrossSegment)
    }

    /// True when `r` is the sink of any dependence.
    pub fn is_sink_of_any(&self, r: RefId) -> bool {
        self.deps_into(r).next().is_some()
    }

    /// True when the region carries at least one cross-segment dependence.
    pub fn has_cross_segment_deps(&self) -> bool {
        self.deps.iter().any(|d| d.scope == DepScope::CrossSegment)
    }

    /// Enumerates every may-dependence of a region loop given the
    /// reference table of its body: for every ordered pair of same-variable
    /// sites (at least one a write), the cross-segment dependence if one is
    /// feasible, then the intra-segment one.
    ///
    /// This is the reference enumeration, for tests and diagnostics: it
    /// tests every pair with no partition, interning or memo, so it shares
    /// only the level tests with [`SinkSummary::analyze`], which the
    /// compile path runs instead.
    pub fn analyze(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Self {
        let tester = Tester::new(vars, region);
        let sites = table.sites();
        let pre: Vec<SitePre> = sites
            .iter()
            .map(|s| SitePre::new(vars, region, s))
            .collect();
        let mut out = DependenceSet::default();
        for (a, pa) in sites.iter().zip(&pre) {
            if !vars.kind(a.var).is_data() {
                continue;
            }
            for (b, pb) in sites.iter().zip(&pre) {
                if a.var != b.var {
                    continue;
                }
                let kind = match (a.access, b.access) {
                    (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
                    (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                    (AccessKind::Write, AccessKind::Write) => DepKind::Output,
                    (AccessKind::Read, AccessKind::Read) => continue,
                };
                if let Some(distance) = tester.test_cross(a, b, pa, pb) {
                    out.push(Dependence {
                        source: a.id,
                        sink: b.id,
                        kind,
                        scope: DepScope::CrossSegment,
                        distance,
                    });
                }
                if tester.test_intra(a, b, pa, pb) {
                    out.push(Dependence {
                        source: a.id,
                        sink: b.id,
                        kind,
                        scope: DepScope::IntraSegment,
                        distance: None,
                    });
                }
            }
        }
        out
    }
}

/// The per-sink dependence facts Algorithm 2 and the region flags read,
/// and nothing else:
///
/// * whether a site is the sink of a cross-segment dependence (Lemma 3,
///   Theorem 1);
/// * for a site that is not, its intra-segment write sources: the flow
///   sources of a read (Theorem 2) and the output sources of a write
///   (the program-order refinement of Theorem 1 in `refidem-core`).
///
/// Sites with neither fact are absent. The contents are immutable and
/// shared behind one `Arc`, so `clone` bumps a reference count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkSummary {
    store: Arc<SinkStore>,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct SinkStore {
    /// One entry per sink with a fact, sorted by sink id.
    facts: Vec<SinkFact>,
    /// The intra-segment sources of every fact, concatenated in fact order,
    /// each fact's run sorted by id.
    sources: Vec<RefId>,
}

/// The facts of one sink of a [`SinkSummary`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkFact {
    /// The sink reference site.
    pub sink: RefId,
    /// True when the site is the sink of a cross-segment dependence. Such a
    /// fact lists no intra-segment sources.
    pub cross: bool,
    sources: (u32, u32),
}

impl SinkStore {
    /// Appends the fact of `sink`; sinks must arrive in increasing id order.
    fn push(&mut self, sink: RefId, cross: bool, start: usize) {
        debug_assert!(self.facts.last().map_or(true, |f| f.sink < sink));
        self.sources[start..].sort_unstable();
        let offset = |i: usize| u32::try_from(i).expect("fewer than 2^32 intra sources");
        self.facts.push(SinkFact {
            sink,
            cross,
            sources: (offset(start), offset(self.sources.len())),
        });
    }
}

impl SinkSummary {
    /// Computes the summary of a region loop given the reference table of
    /// its body, testing sink by sink (see the module docs). Equal to
    /// [`from_deps`](Self::from_deps) of [`DependenceSet::analyze`] on the
    /// same input.
    pub fn analyze(vars: &VarTable, region: &LoopStmt, table: &RefTable) -> Self {
        let sites = table.sites();
        let partition = Partition::new(vars, sites);
        let mut pairs = PairTester::new(vars, region, sites, &partition);
        // Sinks in id order, so the store comes out sorted.
        let mut sinks: Vec<usize> = (0..sites.len())
            .filter(|&i| partition.members(i).is_some())
            .collect();
        sinks.sort_unstable_by_key(|&i| sites[i].id);
        let mut store = SinkStore::default();
        for b_idx in sinks {
            let b = &sites[b_idx];
            let members = partition.members(b_idx).expect("sinks are partitioned");
            let cross = members.iter().any(|&a_idx| {
                (sites[a_idx].access == AccessKind::Write || b.access == AccessKind::Write)
                    && pairs.cross(a_idx, b_idx).is_some()
            });
            let start = store.sources.len();
            if !cross {
                for &a_idx in members {
                    if sites[a_idx].access == AccessKind::Write && pairs.intra(a_idx, b_idx) {
                        store.sources.push(sites[a_idx].id);
                    }
                }
            }
            if cross || store.sources.len() > start {
                store.push(b.id, cross, start);
            }
        }
        SinkSummary {
            store: Arc::new(store),
        }
    }

    /// Derives the summary from an explicit dependence set: a sink's cross
    /// bit from its cross-segment dependences, and, for a sink without
    /// one, the sources of its intra-segment flow and output dependences.
    pub fn from_deps(deps: &DependenceSet) -> Self {
        let mut per_sink: BTreeMap<RefId, (bool, Vec<RefId>)> = BTreeMap::new();
        for d in deps.deps() {
            let (cross, sources) = per_sink.entry(d.sink).or_default();
            match d.scope {
                DepScope::CrossSegment => *cross = true,
                DepScope::IntraSegment if d.kind != DepKind::Anti => sources.push(d.source),
                DepScope::IntraSegment => {}
            }
        }
        let mut store = SinkStore::default();
        for (sink, (cross, mut sources)) in per_sink {
            if cross {
                sources.clear();
            }
            sources.sort_unstable();
            sources.dedup();
            if cross || !sources.is_empty() {
                let start = store.sources.len();
                store.sources.extend(sources);
                store.push(sink, cross, start);
            }
        }
        SinkSummary {
            store: Arc::new(store),
        }
    }

    /// Every sink with a fact, sorted by sink id.
    pub fn facts(&self) -> &[SinkFact] {
        &self.store.facts
    }

    /// Number of sinks with a fact.
    pub fn len(&self) -> usize {
        self.store.facts.len()
    }

    /// True when no site is the sink of a dependence the labeling reads.
    pub fn is_empty(&self) -> bool {
        self.store.facts.is_empty()
    }

    fn fact(&self, r: RefId) -> Option<&SinkFact> {
        let facts = &self.store.facts;
        facts
            .binary_search_by_key(&r, |f| f.sink)
            .ok()
            .map(|i| &facts[i])
    }

    /// True when `r` is the sink of a cross-segment dependence (Lemma 3's
    /// condition).
    pub fn is_sink_of_cross_segment(&self, r: RefId) -> bool {
        self.fact(r).is_some_and(|f| f.cross)
    }

    /// The intra-segment write sources of `r`, sorted by id: the flow
    /// sources of a read, the output sources of a write. Empty when `r` is
    /// the sink of a cross-segment dependence.
    pub fn intra_sources(&self, r: RefId) -> &[RefId] {
        self.fact(r).map_or(&[], |f| {
            &self.store.sources[f.sources.0 as usize..f.sources.1 as usize]
        })
    }

    /// True when the region carries at least one cross-segment dependence.
    pub fn has_cross_segment_deps(&self) -> bool {
        self.store.facts.iter().any(|f| f.cross)
    }

    /// True when the region carries at least one cross-segment dependence
    /// into a site whose variable is outside `ignored` (used to model
    /// compiler parallelization after privatization).
    pub fn has_cross_segment_deps_excluding(
        &self,
        table: &RefTable,
        ignored: &dyn Fn(VarId) -> bool,
    ) -> bool {
        self.store.facts.iter().any(|f| {
            f.cross
                && table
                    .get(f.sink)
                    .map(|site| !ignored(site.var))
                    .unwrap_or(true)
        })
    }
}

/// Per-variable partition of the site list. Only sites of a data variable
/// with at least one write site can take part in a dependence; every other
/// site — notably the giant blocks' read-only coefficient arrays — skips
/// testing, signature interning and the bounds walk entirely.
struct Partition {
    /// Member site indices of each partition, in table order.
    groups: Vec<Vec<usize>>,
    /// The partition of each site, [`Partition::NONE`] for a site that
    /// takes part in no dependence.
    group_of: Vec<u32>,
}

impl Partition {
    const NONE: u32 = u32::MAX;

    fn new(vars: &VarTable, sites: &[RefSite]) -> Self {
        let mut index: HashMap<VarId, u32> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut written: Vec<bool> = Vec::new();
        let mut group_of = vec![Self::NONE; sites.len()];
        for (i, s) in sites.iter().enumerate() {
            if !vars.kind(s.var).is_data() {
                continue;
            }
            let g = *index.entry(s.var).or_insert_with(|| {
                groups.push(Vec::new());
                written.push(false);
                groups.len() as u32 - 1
            });
            groups[g as usize].push(i);
            written[g as usize] |= s.access == AccessKind::Write;
            group_of[i] = g;
        }
        for g in &mut group_of {
            if *g != Self::NONE && !written[*g as usize] {
                *g = Self::NONE;
            }
        }
        Partition { groups, group_of }
    }

    /// The sites that may alias site `i` (itself included), or `None` when
    /// `i` takes part in no dependence.
    fn members(&self, i: usize) -> Option<&[usize]> {
        let g = self.group_of[i];
        (g != Self::NONE).then(|| self.groups[g as usize].as_slice())
    }
}

/// The memoized pair tester shared by [`DependenceSet::analyze`] and
/// [`SinkSummary::analyze`]: the interned signature of every partitioned
/// site, the arena of per-signature facts, and one verdict memo per level
/// class.
struct PairTester<'a> {
    tester: Tester<'a>,
    sites: &'a [RefSite],
    sig: Vec<u32>,
    pre: Vec<SitePre>,
    /// `(sig_a, sig_b)` → region-level verdict (with its distance).
    cross: Memo<Option<Option<i64>>>,
    /// `(sig_a, sig_b, a.order < b.order)` → intra-segment verdict.
    intra: Memo<bool>,
}

impl<'a> PairTester<'a> {
    /// Interns each partitioned site's access signature and precomputes,
    /// once per distinct signature, the `IndexBounds` walk and the
    /// parameter-folded affine view of each subscript. (Sites with equal
    /// signatures have identical loop nests and subscripts, so they share
    /// one arena entry.)
    fn new(
        vars: &'a VarTable,
        region: &'a LoopStmt,
        sites: &'a [RefSite],
        partition: &Partition,
    ) -> Self {
        let mut interner: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut tokens: Vec<i64> = Vec::new();
        let mut sig: Vec<u32> = vec![0; sites.len()];
        let mut pre: Vec<SitePre> = Vec::new();
        for (i, s) in sites.iter().enumerate() {
            if partition.group_of[i] == Partition::NONE {
                continue;
            }
            signature_tokens(s, &mut tokens);
            if let Some(&id) = interner.get(tokens.as_slice()) {
                sig[i] = id;
            } else {
                sig[i] = pre.len() as u32;
                interner.insert(tokens.clone(), sig[i]);
                pre.push(SitePre::new(vars, region, s));
            }
        }
        PairTester {
            tester: Tester::new(vars, region),
            sites,
            sig,
            cross: Memo::new(pre.len(), false),
            intra: Memo::new(pre.len(), true),
            pre,
        }
    }

    /// The region-level (cross-segment) verdict of the ordered pair
    /// (source `a`, sink `b`): `Some(distance)` when a dependence may exist.
    fn cross(&mut self, a: usize, b: usize) -> Option<Option<i64>> {
        let (sa, sb) = (self.sig[a], self.sig[b]);
        let (tester, sites, pre) = (&self.tester, self.sites, &self.pre);
        self.cross.get_or_insert_with(sa, sb, false, || {
            tester.test_cross(&sites[a], &sites[b], &pre[sa as usize], &pre[sb as usize])
        })
    }

    /// The intra-segment verdict of the ordered pair (source `a`, sink `b`).
    fn intra(&mut self, a: usize, b: usize) -> bool {
        let (sa, sb) = (self.sig[a], self.sig[b]);
        let lt = self.sites[a].order < self.sites[b].order;
        let (tester, sites, pre) = (&self.tester, self.sites, &self.pre);
        self.intra.get_or_insert_with(sa, sb, lt, || {
            tester.test_intra(&sites[a], &sites[b], &pre[sa as usize], &pre[sb as usize])
        })
    }
}

/// A verdict memo keyed by a canonical signature pair, optionally split by
/// `a.order < b.order`. The key maps to a slot in `values`: through a flat
/// `S²` (or `2·S²`) index while the distinct-signature count `S` is small
/// — the giant-block case, where pair enumeration is the hot loop — and
/// through a hash map beyond [`Memo::DENSE_SIG_LIMIT`], where verdict
/// computation dominates anyway.
struct Memo<V> {
    index: MemoIndex,
    values: Vec<V>,
}

enum MemoIndex {
    /// Slot + 1 per key; 0 is empty, so the table starts zeroed.
    Dense {
        sigs: usize,
        ordered: bool,
        table: Vec<u32>,
    },
    Sparse(HashMap<(u32, u32, bool), u32>),
}

impl<V: Copy> Memo<V> {
    /// Above this many distinct signatures the dense index (`4·S²` bytes
    /// per order class) gives way to a hash map.
    const DENSE_SIG_LIMIT: usize = 512;

    fn new(sigs: usize, ordered: bool) -> Self {
        let index = if sigs <= Self::DENSE_SIG_LIMIT {
            MemoIndex::Dense {
                sigs,
                ordered,
                table: vec![0; (1 + ordered as usize) * sigs * sigs],
            }
        } else {
            MemoIndex::Sparse(HashMap::new())
        };
        Memo {
            index,
            values: Vec::new(),
        }
    }

    fn get_or_insert_with(&mut self, sa: u32, sb: u32, lt: bool, f: impl FnOnce() -> V) -> V {
        let next = self.values.len() as u32;
        let slot = match &mut self.index {
            MemoIndex::Dense {
                sigs,
                ordered,
                table,
            } => {
                let mut i = sa as usize * *sigs + sb as usize;
                if *ordered {
                    i = 2 * i + lt as usize;
                }
                if table[i] == 0 {
                    table[i] = next + 1;
                }
                table[i] - 1
            }
            MemoIndex::Sparse(map) => *map.entry((sa, sb, lt)).or_insert(next),
        };
        if slot == next {
            self.values.push(f());
        }
        self.values[slot as usize]
    }
}

/// Per-site precomputed facts (the flat site arena): the per-site bounds
/// walk and the parameter-folded affine view of each subscript (`None` for
/// indirect subscripts, which stay conservatively may-dependent).
struct SitePre {
    bounds: IndexBounds,
    subs: Vec<Option<AffineExpr>>,
}

impl SitePre {
    fn new(vars: &VarTable, region: &LoopStmt, s: &RefSite) -> Self {
        SitePre {
            bounds: IndexBounds::for_site(vars, region, &s.loops),
            subs: s
                .reference
                .subs
                .iter()
                .map(|sub| {
                    sub.as_affine()
                        .map(|e| e.substitute_params(&|v| vars.param_value(v)))
                })
                .collect(),
        }
    }
}

/// Serializes everything the hierarchical tester reads from one site into
/// an internable token stream: access kind, guard context, the
/// enclosing-loop vector (loop identity, index variable, affine bounds,
/// step) and each subscript's affine coefficient vector (indirect
/// subscripts contribute a bare marker — the tester never looks inside
/// them). Two sites with equal tokens are indistinguishable to
/// [`Tester::test_cross`] and [`Tester::test_intra`], which is what makes
/// the per-signature-pair verdict memos sound. The tokens replace the
/// contents of `t`.
fn signature_tokens(s: &RefSite, t: &mut Vec<i64>) {
    fn push_affine(t: &mut Vec<i64>, e: &AffineExpr) {
        t.push(e.constant);
        t.push(e.terms.len() as i64);
        for (&v, &c) in &e.terms {
            t.push(v.index() as i64);
            t.push(c);
        }
    }
    t.clear();
    t.push((s.access == AccessKind::Write) as i64);
    t.push(s.conditional as i64);
    t.push(s.loops.len() as i64);
    for l in &s.loops {
        t.push(l.stmt.index() as i64);
        t.push(l.index.index() as i64);
        push_affine(t, &l.lower);
        push_affine(t, &l.upper);
        t.push(l.step);
    }
    t.push(s.reference.subs.len() as i64);
    for sub in &s.reference.subs {
        match sub.as_affine() {
            Some(e) => {
                t.push(1);
                push_affine(t, e);
            }
            None => t.push(0),
        }
    }
}

/// Internal: hierarchical dependence tester for one region. Parameter
/// folding happens in the site arena ([`SitePre`]), so the tester only
/// needs the region loop and its bounds.
struct Tester<'a> {
    region: &'a LoopStmt,
    region_bounds: IndexBounds,
}

/// Meta-variable ids start here so they never collide with program
/// variables.
const META_BASE: u32 = 1 << 24;

/// Meta-variable allocator with a dense bounds table: meta ids are
/// consecutive from [`META_BASE`], so their bounds live in a flat vector
/// indexed by allocation order instead of a per-pair `BTreeMap`.
#[derive(Default)]
struct MetaAlloc {
    bounds: Vec<(i64, i64)>,
}

impl MetaAlloc {
    fn fresh(&mut self, lo: i64, hi: i64) -> VarId {
        let id = VarId(META_BASE + self.bounds.len() as u32);
        self.bounds.push((lo.min(hi), lo.max(hi)));
        id
    }

    /// Bounds of a meta variable; `None` for program variables (which the
    /// allocator never bounds).
    fn get(&self, v: VarId) -> Option<(i64, i64)> {
        v.index()
            .checked_sub(META_BASE as usize)
            .and_then(|i| self.bounds.get(i).copied())
    }
}

/// How the source and sink instances relate at one loop level.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LevelRelation {
    /// Both instances use the same index value.
    Equal,
    /// The sink's index is `step * t` ahead of the source's, `t >= 1`.
    Carried,
    /// The indices are unrelated (inner levels of a carried dependence).
    Free,
}

impl<'a> Tester<'a> {
    fn new(vars: &'a VarTable, region: &'a LoopStmt) -> Self {
        let mut region_bounds = IndexBounds::new();
        region_bounds.enter_loop(
            vars,
            region.index,
            &region.lower,
            &region.upper,
            region.step,
        );
        Tester {
            region,
            region_bounds,
        }
    }

    /// Longest common prefix of the two sites' inner-loop nests (loops are
    /// identified by their statement id).
    fn common_loops<'s>(&self, a: &'s RefSite, b: &'s RefSite) -> Vec<&'s LoopContext> {
        let mut out = Vec::new();
        for (la, lb) in a.loops.iter().zip(&b.loops) {
            if la.stmt == lb.stmt {
                out.push(la);
            } else {
                break;
            }
        }
        out
    }

    /// Tests the region level for the ordered pair (source = `a`, sink =
    /// `b`): `Some(distance)` when a cross-segment dependence may exist.
    /// The verdict depends only on the two sites' access signatures — the
    /// invariant the `(sig_a, sig_b)` memo of [`PairTester`] relies on.
    fn test_cross(
        &self,
        a: &RefSite,
        b: &RefSite,
        pa: &SitePre,
        pb: &SitePre,
    ) -> Option<Option<i64>> {
        self.test_level(a, b, pa, pb, &self.common_loops(a, b), 0)
    }

    /// Tests the intra-segment levels for the ordered pair (source = `a`,
    /// sink = `b`): carried by a common inner loop, or loop-independent.
    /// The verdict depends only on the two sites' access signatures and on
    /// whether `a` textually precedes `b` — the key of the intra memo of
    /// [`PairTester`].
    fn test_intra(&self, a: &RefSite, b: &RefSite, pa: &SitePre, pb: &SitePre) -> bool {
        let common = self.common_loops(a, b);
        let carried =
            (1..=common.len()).any(|level| self.test_level(a, b, pa, pb, &common, level).is_some());
        // Loop-independent (same instance of every common loop) requires
        // the source to precede the sink textually.
        carried
            || (a.id != b.id
                && a.order < b.order
                && self
                    .test_level(a, b, pa, pb, &common, common.len() + 1)
                    .is_some())
    }

    /// Tests one dependence level.
    ///
    /// `level == 0` is the region loop (cross-segment). `level == i` for
    /// `1 <= i <= common.len()` is carried by the i-th common inner loop.
    /// `level == common.len() + 1` is the loop-independent level.
    ///
    /// Returns `Some(distance)` when a dependence may exist (the distance is
    /// known only for exactly-solved region-level dependences).
    #[allow(clippy::too_many_arguments)]
    fn test_level(
        &self,
        a: &RefSite,
        b: &RefSite,
        pa: &SitePre,
        pb: &SitePre,
        common: &[&LoopContext],
        level: usize,
    ) -> Option<Option<i64>> {
        let mut alloc = MetaAlloc::default();
        let bounds_a = &pa.bounds;
        let bounds_b = &pb.bounds;

        // Mapping from real index variables to meta expressions, separately
        // for the source and the sink.
        let mut map_a: BTreeMap<VarId, AffineExpr> = BTreeMap::new();
        let mut map_b: BTreeMap<VarId, AffineExpr> = BTreeMap::new();
        // The carried-distance meta variable, if this level is carried.
        let mut distance_var: Option<VarId> = None;

        // Region loop.
        let (klo, khi) = self
            .region_bounds
            .get(self.region.index)
            .unwrap_or((i64::MIN / 4, i64::MAX / 4));
        let max_trip = LoopStmt::trip_count(klo, khi, 1);
        let relation = |lvl: usize| -> LevelRelation {
            use std::cmp::Ordering::*;
            match lvl.cmp(&level) {
                Less => LevelRelation::Equal,
                Equal => LevelRelation::Carried,
                Greater => LevelRelation::Free,
            }
        };
        // Level indices: region loop is level 0; common inner loop i is
        // level i+1; the loop-independent level never marks anything
        // Carried.
        self.bind_level(
            &mut alloc,
            &mut map_a,
            &mut map_b,
            &mut distance_var,
            self.region.index,
            (klo, khi),
            self.region.step,
            max_trip,
            relation(0),
        )?;
        for (i, l) in common.iter().enumerate() {
            let bounds = bounds_a.get(l.index).or_else(|| bounds_b.get(l.index));
            let (lo, hi) = bounds.unwrap_or((i64::MIN / 4, i64::MAX / 4));
            let trip = LoopStmt::trip_count(lo, hi, 1);
            self.bind_level(
                &mut alloc,
                &mut map_a,
                &mut map_b,
                &mut distance_var,
                l.index,
                (lo, hi),
                l.step,
                trip,
                relation(i + 1),
            )?;
        }
        // Non-common inner loops: always independent.
        for l in a.loops.iter().skip(common.len()) {
            let (lo, hi) = bounds_a
                .get(l.index)
                .unwrap_or((i64::MIN / 4, i64::MAX / 4));
            let meta = alloc.fresh(lo, hi);
            map_a.insert(l.index, AffineExpr::var(meta));
        }
        for l in b.loops.iter().skip(common.len()) {
            let (lo, hi) = bounds_b
                .get(l.index)
                .unwrap_or((i64::MIN / 4, i64::MAX / 4));
            let meta = alloc.fresh(lo, hi);
            map_b.insert(l.index, AffineExpr::var(meta));
        }

        // Scalars: no subscripts to constrain, dependence feasible.
        if a.reference.subs.is_empty() && b.reference.subs.is_empty() {
            return Some(self.scalar_distance(level, distance_var, &alloc));
        }
        if a.reference.subs.len() != b.reference.subs.len() {
            // Mismatched arity (should not happen for well-formed programs);
            // be conservative.
            return Some(None);
        }

        let mut exact_distance: Option<i64> = None;
        for (sa, sb) in pa.subs.iter().zip(&pb.subs) {
            let (ea, eb) = match (sa, sb) {
                (Some(ea), Some(eb)) => (ea, eb),
                // An indirect subscript: may-dependent in this dimension.
                _ => continue,
            };
            let da = self.substitute_folded(ea, &map_a);
            let db = self.substitute_folded(eb, &map_b);
            let diff = da - db;
            match feasible(&diff, &alloc) {
                Feasibility::Infeasible => return None,
                Feasibility::Feasible => {}
                Feasibility::Exact(var, value) => {
                    if Some(var) == distance_var && level == 0 {
                        exact_distance = Some(value);
                    }
                }
            }
        }
        Some(exact_distance)
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_level(
        &self,
        alloc: &mut MetaAlloc,
        map_a: &mut BTreeMap<VarId, AffineExpr>,
        map_b: &mut BTreeMap<VarId, AffineExpr>,
        distance_var: &mut Option<VarId>,
        index: VarId,
        bounds: (i64, i64),
        step: i64,
        max_trip: usize,
        relation: LevelRelation,
    ) -> Option<()> {
        match relation {
            LevelRelation::Equal => {
                let meta = alloc.fresh(bounds.0, bounds.1);
                map_a.insert(index, AffineExpr::var(meta));
                map_b.insert(index, AffineExpr::var(meta));
            }
            LevelRelation::Carried => {
                if max_trip < 2 {
                    // The loop cannot carry a dependence.
                    return None;
                }
                let meta = alloc.fresh(bounds.0, bounds.1);
                let t = alloc.fresh(1, i64::try_from(max_trip - 1).unwrap_or(i64::MAX));
                *distance_var = Some(t);
                map_a.insert(index, AffineExpr::var(meta));
                map_b.insert(
                    index,
                    AffineExpr::var(meta) + AffineExpr::scaled_var(t, step),
                );
            }
            LevelRelation::Free => {
                let ma = alloc.fresh(bounds.0, bounds.1);
                let mb = alloc.fresh(bounds.0, bounds.1);
                map_a.insert(index, AffineExpr::var(ma));
                map_b.insert(index, AffineExpr::var(mb));
            }
        }
        Some(())
    }

    fn scalar_distance(
        &self,
        level: usize,
        distance_var: Option<VarId>,
        _alloc: &MetaAlloc,
    ) -> Option<i64> {
        // A scalar dependence at the region level can have any distance; we
        // report the minimum one (1) for cross-segment dependences.
        if level == 0 && distance_var.is_some() {
            Some(1)
        } else {
            None
        }
    }

    /// Maps the index variables of an already parameter-folded affine
    /// expression (see [`SitePre::subs`]) to their meta expressions.
    fn substitute_folded(
        &self,
        folded: &AffineExpr,
        map: &BTreeMap<VarId, AffineExpr>,
    ) -> AffineExpr {
        let mut out = AffineExpr::constant(folded.constant);
        for (&v, &c) in &folded.terms {
            match map.get(&v) {
                Some(meta) => out = out + meta.clone() * c,
                None => out.add_term(v, c),
            }
        }
        out
    }
}

enum Feasibility {
    /// The dimension can never be equal.
    Infeasible,
    /// The dimension may be equal.
    Feasible,
    /// The dimension is equal exactly when the given meta variable has the
    /// given value (strong-SIV exact solution).
    Exact(VarId, i64),
}

/// Decides whether `diff == 0` has a solution with every variable inside its
/// bounds, using exact single-variable solving, a GCD test and an interval
/// (Banerjee-style) test.
fn feasible(diff: &AffineExpr, bounds: &MetaAlloc) -> Feasibility {
    if diff.is_constant() {
        return if diff.constant == 0 {
            Feasibility::Feasible
        } else {
            Feasibility::Infeasible
        };
    }
    // Exact single-variable case: c * v + constant == 0.
    if diff.terms.len() == 1 {
        let (&v, &c) = diff.terms.iter().next().expect("one term");
        if diff.constant % c != 0 {
            return Feasibility::Infeasible;
        }
        let value = -diff.constant / c;
        if let Some((lo, hi)) = bounds.get(v) {
            if value < lo || value > hi {
                return Feasibility::Infeasible;
            }
        }
        return Feasibility::Exact(v, value);
    }
    // GCD test.
    let g = diff.terms.values().fold(0i64, |acc, &c| gcd(acc, c));
    if g != 0 && diff.constant % g != 0 {
        return Feasibility::Infeasible;
    }
    // Interval (Banerjee bounds) test.
    let range = diff.range(&|v| bounds.get(v));
    match range {
        Some((lo, hi)) => {
            if lo <= 0 && 0 <= hi {
                Feasibility::Feasible
            } else {
                Feasibility::Infeasible
            }
        }
        // Unknown bounds: conservative.
        None => Feasibility::Feasible,
    }
}

/// Convenience: analyzes the dependences of a labeled region loop of a
/// procedure (collecting the body's reference table internally).
pub fn analyze_region_loop(vars: &VarTable, region: &LoopStmt) -> (RefTable, DependenceSet) {
    let table = RefTable::collect(&region.body);
    let deps = DependenceSet::analyze(vars, region, &table);
    (table, deps)
}

/// Helper for tests and tools: formats a dependence with variable names.
pub fn dependence_to_string(table: &RefTable, vars: &VarTable, d: &Dependence) -> String {
    let name = |r: RefId| {
        table
            .get(r)
            .map(|s| {
                format!(
                    "{}{}({r})",
                    vars.name(s.var),
                    if s.access == AccessKind::Write {
                        "=w"
                    } else {
                        "=r"
                    }
                )
            })
            .unwrap_or_else(|| format!("{r}"))
    };
    format!(
        "{:?} {:?} {} -> {}{}",
        d.scope,
        d.kind,
        name(d.source),
        name(d.sink),
        d.distance
            .map(|x| format!(" (distance {x})"))
            .unwrap_or_default()
    )
}

/// Builds a region loop from a labeled loop inside a statement, for tests.
pub fn find_region<'p>(body: &'p [Stmt], label: &str) -> Option<&'p LoopStmt> {
    for s in body {
        if let Some(l) = s.find_loop(label) {
            return Some(l);
        }
    }
    None
}

/// Returns the id of the statement containing a site (convenience for
/// diagnostics).
pub fn site_stmt(table: &RefTable, r: RefId) -> Option<StmtId> {
    table.get(r).map(|s| s.stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};
    fn region_of(b: &ProcBuilder, body: &[Stmt], label: &str) -> LoopStmt {
        let _ = b;
        find_region(body, label).expect("region").clone()
    }

    /// A TWLDRV-shaped giant block: `stmts` straight-line statements
    /// chaining four accumulator scalars through coefficient-array reads,
    /// plus a final array store.
    fn giant_block(stmts: usize) -> (ProcBuilder, Vec<Stmt>) {
        let mut b = ProcBuilder::new("giant");
        let e = b.array("e", &[stmts, 8]);
        let g = b.array("g", &[8]);
        let s1 = b.scalar("s1");
        let s2 = b.scalar("s2");
        let s3 = b.scalar("s3");
        let s4 = b.scalar("s4");
        let k = b.index("k");
        let scalars = [s1, s2, s3, s4];
        let mut body = Vec::with_capacity(stmts + 1);
        for u in 0..stmts {
            let dst = scalars[u % 4];
            let src = scalars[(u + 1) % 4];
            let term = b.load_elem(e, vec![ac(u as i64 + 1), av(k)]);
            let rhs = add(b.load(src), term);
            body.push(b.assign_scalar(dst, rhs));
        }
        let lhs = b.load(s1);
        let rhs = b.load(s2);
        let sum = add(lhs, rhs);
        body.push(b.assign_elem(g, vec![av(k)], sum));
        let outer = vec![b.do_loop_labeled("G", k, ac(1), ac(8), body)];
        (b, outer)
    }

    /// The demand-driven summary (partition + arena + memos + early exit)
    /// must equal the summary of the reference pair loop on a mix of region
    /// shapes: carried stencils, scalar tangles, interleaved strides,
    /// descending loops, indirect subscripts, guarded writes and
    /// intra-segment-only recurrences.
    #[test]
    fn summary_matches_the_reference_on_diverse_regions() {
        let mut cases: Vec<(ProcBuilder, Vec<Stmt>, &str)> = Vec::new();
        // Carried stencil: a(k) = a(k-1) + 1.
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let k = b.index("k");
            let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
            let s = b.assign_elem(a, vec![av(k)], rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
            cases.push((b, body, "R"));
        }
        // Scalar tangle with a guarded write: if (a(k)) then t = a(k).
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let t = b.scalar("t");
            let k = b.index("k");
            let cond = b.load_elem(a, vec![av(k)]);
            let read = b.load_elem(a, vec![av(k)]);
            let asg = b.assign_scalar(t, read);
            let guarded = b.if_then(cond, vec![asg]);
            let tv = b.load(t);
            let store = b.assign_elem(a, vec![av(k)], tv);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![guarded, store])];
            cases.push((b, body, "R"));
        }
        // Interleaved strides: a(2k) vs a(2k+1).
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[64]);
            let q = b.scalar("q");
            let k = b.index("k");
            let w = b.assign_elem(a, vec![AffineExpr::scaled_var(k, 2)], num(1.0));
            let rhs = b.load_elem(a, vec![AffineExpr::scaled_var(k, 2) + ac(1)]);
            let r = b.assign_scalar(q, rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
            cases.push((b, body, "R"));
        }
        // Descending loop: a(k) = a(k+1), step -1.
        {
            let mut b = ProcBuilder::new("t");
            let a = b.array("a", &[16]);
            let k = b.index("k");
            let rhs = b.load_elem(a, vec![av(k) + ac(1)]);
            let s = b.assign_elem(a, vec![av(k)], rhs);
            let body = vec![b.do_loop_step(Some("R"), k, ac(10), ac(1), -1, vec![s])];
            cases.push((b, body, "R"));
        }
        // Indirect subscripts: x(idx(k)) = x(idx(k)) + 1.
        {
            let mut b = ProcBuilder::new("t");
            let x = b.array("x", &[16]);
            let idxv = b.array("idx", &[16]);
            let k = b.index("k");
            let i1 = b.aref(idxv, vec![av(k)]);
            let ind1 = b.indirect(i1);
            let lhs = b.aref_subs(x, vec![ind1]);
            let i2 = b.aref(idxv, vec![av(k)]);
            let ind2 = b.indirect(i2);
            let rref = b.aref_subs(x, vec![ind2]);
            let rhs = add(b.load_ref(rref), num(1.0));
            let s = b.assign(lhs, rhs);
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
            cases.push((b, body, "R"));
        }
        // Intra-segment only: an inner-loop recurrence m(k, j) = m(k, j-1)
        // and a second write to the element the first one wrote.
        {
            let mut b = ProcBuilder::new("t");
            let m = b.array("m", &[16, 16]);
            let k = b.index("k");
            let j = b.index("j");
            let rhs = add(b.load_elem(m, vec![av(k), av(j) - ac(1)]), num(1.0));
            let s = b.assign_elem(m, vec![av(k), av(j)], rhs);
            let inner = b.do_loop(j, ac(2), ac(9), vec![s]);
            let again = b.assign_elem(m, vec![av(k), ac(9)], num(0.5));
            let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![inner, again])];
            cases.push((b, body, "R"));
        }
        let mut intra_sources = 0;
        for (b, body, label) in &cases {
            let region = find_region(body, label).expect("region").clone();
            let table = RefTable::collect(&region.body);
            let reference = DependenceSet::analyze(b.vars(), &region, &table);
            let summary = SinkSummary::analyze(b.vars(), &region, &table);
            assert_eq!(summary, SinkSummary::from_deps(&reference));
            intra_sources += summary.store.sources.len();
        }
        assert!(intra_sources > 0, "the cases must exercise intra sources");
    }

    /// A giant block (every sink a cross-segment sink) summarizes exactly
    /// like its full enumeration, in a handful of distinct pair tests.
    #[test]
    fn giant_block_summary_matches_the_reference() {
        let (b, body) = giant_block(96);
        let region = find_region(&body, "G").expect("region").clone();
        let table = RefTable::collect(&region.body);
        let reference = DependenceSet::analyze(b.vars(), &region, &table);
        let summary = SinkSummary::analyze(b.vars(), &region, &table);
        assert_eq!(summary, SinkSummary::from_deps(&reference));
        assert!(summary.has_cross_segment_deps());
        assert!(summary.len() < reference.len());
    }

    /// do k = 1, 10:  a(k) = a(k-1) + 1   — classic loop-carried flow dep.
    #[test]
    fn carried_flow_dependence_is_cross_segment() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        // The read a(k-1) is the sink of a cross-segment flow dependence
        // from the write a(k) at distance 1.
        let read = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Read)
            .unwrap();
        let write = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Write)
            .unwrap();
        assert!(deps.is_sink_of_cross_segment(read.id));
        let flow: Vec<_> = deps
            .deps_into(read.id)
            .filter(|d| d.kind == DepKind::Flow && d.scope == DepScope::CrossSegment)
            .collect();
        assert_eq!(flow.len(), 1);
        assert_eq!(flow[0].source, write.id);
        assert_eq!(flow[0].distance, Some(1));
        // The write is the sink of a cross-segment anti dependence (the read
        // of a(k-1) in a later iteration? no — a(k-1) is read one iteration
        // AFTER it is written, so the anti direction is infeasible).
        assert!(!deps.is_sink_of_cross_segment(write.id));
        assert!(deps.has_cross_segment_deps());
    }

    /// do k = 1, 10:  a(k) = b(k) * 2 — fully independent.
    #[test]
    fn independent_loop_has_no_cross_segment_deps() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let bb = b.array("b", &[16]);
        let k = b.index("k");
        let rhs = refidem_ir::build::mul(b.load_elem(bb, vec![av(k)]), num(2.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (_table, deps) = analyze_region_loop(b.vars(), &region);
        assert!(!deps.has_cross_segment_deps());
        assert!(deps.is_empty());
    }

    /// do k = 1, 10:  { t = b(k); a(k) = t } — t carries intra flow deps and
    /// cross anti/output deps.
    #[test]
    fn scalar_temporary_has_intra_flow_and_cross_anti_output() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let bb = b.array("b", &[16]);
        let t = b.scalar("t");
        let k = b.index("k");
        let rhs1 = b.load_elem(bb, vec![av(k)]);
        let s1 = b.assign_scalar(t, rhs1);
        let rhs2 = b.load(t);
        let s2 = b.assign_elem(a, vec![av(k)], rhs2);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s1, s2])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let t_write = table
            .sites()
            .iter()
            .find(|s| s.var == t && s.access == AccessKind::Write)
            .unwrap();
        let t_read = table
            .sites()
            .iter()
            .find(|s| s.var == t && s.access == AccessKind::Read)
            .unwrap();
        // Intra-segment flow dependence t_write -> t_read.
        assert!(deps.deps_into(t_read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::IntraSegment
            && d.source == t_write.id));
        // The write is the sink of cross-segment anti and output deps.
        let kinds: Vec<DepKind> = deps
            .deps_into(t_write.id)
            .filter(|d| d.scope == DepScope::CrossSegment)
            .map(|d| d.kind)
            .collect();
        assert!(kinds.contains(&DepKind::Anti));
        assert!(kinds.contains(&DepKind::Output));
        // The read also is the sink of a cross-segment flow dependence
        // (conservatively: t written in an older segment reaches this read).
        assert!(deps.is_sink_of_cross_segment(t_read.id));
    }

    /// The BUTS_DO1 pattern of Figure 4 (ascending region loop): the S1
    /// reads are sources only; the S2 write is a cross-segment sink.
    #[test]
    fn buts_pattern_reads_are_sources_only() {
        let mut b = ProcBuilder::new("t");
        let v = b.array("v", &[5, 10, 10, 10]);
        let k = b.index("k");
        let j = b.index("j");
        let i = b.index("i");
        let l = b.index("l");
        let m = b.index("m");
        let tmp = b.scalar("tmp");
        // S1 (inside do l): tmp = v(l,i,j,k+1) + v(l,i,j+1,k) + v(l,i+1,j,k)
        let rhs1 = add(
            add(
                b.load_elem(v, vec![av(l), av(i), av(j), av(k) + ac(1)]),
                b.load_elem(v, vec![av(l), av(i), av(j) + ac(1), av(k)]),
            ),
            b.load_elem(v, vec![av(l), av(i) + ac(1), av(j), av(k)]),
        );
        let s1 = b.assign_scalar(tmp, rhs1);
        let l_loop = b.do_loop(l, ac(1), ac(5), vec![s1]);
        // S2 (inside do m): v(m,i,j,k) = v(m,i,j,k) - tmp
        let rhs2 = refidem_ir::build::sub(
            b.load_elem(v, vec![av(m), av(i), av(j), av(k)]),
            b.load(tmp),
        );
        let s2 = b.assign_elem(v, vec![av(m), av(i), av(j), av(k)], rhs2);
        let m_loop = b.do_loop(m, ac(1), ac(5), vec![s2]);
        let i_loop = b.do_loop(i, ac(2), ac(9), vec![l_loop, m_loop]);
        let j_loop = b.do_loop(j, ac(2), ac(9), vec![i_loop]);
        let body = vec![b.do_loop_labeled("BUTS_DO1", k, ac(2), ac(9), vec![j_loop])];
        let region = region_of(&b, &body, "BUTS_DO1");
        let (table, deps) = analyze_region_loop(b.vars(), &region);

        let v_reads_s1: Vec<&RefSite> = table
            .sites()
            .iter()
            .filter(|s| {
                s.var == v && s.access == AccessKind::Read && s.loops.iter().any(|lc| lc.index == l)
            })
            .collect();
        assert_eq!(v_reads_s1.len(), 3);
        for site in &v_reads_s1 {
            assert!(
                !deps.is_sink_of_any(site.id),
                "S1 read {} must be a dependence source only",
                site.id
            );
            assert!(deps.deps_from(site.id).count() > 0);
        }
        let v_write = table
            .sites()
            .iter()
            .find(|s| s.var == v && s.access == AccessKind::Write)
            .unwrap();
        assert!(
            deps.is_sink_of_cross_segment(v_write.id),
            "the S2 write is the sink of cross-segment dependences"
        );
        assert!(deps.has_cross_segment_deps());
    }

    /// Reverse (descending) stencil: a(k) = a(k+1) in a descending loop has
    /// no cross-iteration flow dependence into the read (the element read
    /// was written in an *earlier* (larger-k) iteration — so the read IS a
    /// flow sink); sanity-check direction handling for negative steps.
    #[test]
    fn descending_loop_direction_is_respected() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = b.load_elem(a, vec![av(k) + ac(1)]);
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_step(Some("R"), k, ac(10), ac(1), -1, vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Read)
            .unwrap();
        let write = table
            .sites()
            .iter()
            .find(|s| s.access == AccessKind::Write)
            .unwrap();
        // In the descending loop, iteration k reads a(k+1) which was written
        // by iteration k+1 — an OLDER segment. So the read is the sink of a
        // cross-segment flow dependence.
        assert!(deps.deps_into(read.id).any(|d| d.kind == DepKind::Flow
            && d.scope == DepScope::CrossSegment
            && d.source == write.id));
        // And the write is NOT the sink of a cross-segment anti dependence.
        assert!(!deps
            .deps_into(write.id)
            .any(|d| d.kind == DepKind::Anti && d.scope == DepScope::CrossSegment));
    }

    /// Indirect subscripts force conservative may-dependences.
    #[test]
    fn indirect_subscripts_are_conservative() {
        let mut b = ProcBuilder::new("t");
        let x = b.array("x", &[16]);
        let idxv = b.array("idx", &[16]);
        let k = b.index("k");
        // x(idx(k)) = x(idx(k)) + 1
        let i1 = b.aref(idxv, vec![av(k)]);
        let ind1 = b.indirect(i1);
        let lhs = b.aref_subs(x, vec![ind1]);
        let i2 = b.aref(idxv, vec![av(k)]);
        let ind2 = b.indirect(i2);
        let rref = b.aref_subs(x, vec![ind2]);
        let rhs = add(b.load_ref(rref), num(1.0));
        let s = b.assign(lhs, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let x_write = table
            .sites()
            .iter()
            .find(|s| s.var == x && s.access == AccessKind::Write)
            .unwrap();
        let x_read = table
            .sites()
            .iter()
            .find(|s| s.var == x && s.access == AccessKind::Read)
            .unwrap();
        // Both cross-segment directions are conservatively reported.
        assert!(deps.is_sink_of_cross_segment(x_write.id));
        assert!(deps.is_sink_of_cross_segment(x_read.id));
    }

    /// Distinct constant subscripts never alias.
    #[test]
    fn distinct_constants_do_not_alias() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let q = b.scalar("q");
        let k = b.index("k");
        let w = b.assign_elem(a, vec![ac(1)], num(1.0));
        let rhs = b.load_elem(a, vec![ac(2)]);
        let r = b.assign_scalar(q, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Read)
            .unwrap();
        assert!(!deps.is_sink_of_any(read.id));
        // a(1) = ... is still the sink of a cross-segment output dependence
        // with itself (same element every iteration).
        let write = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Write)
            .unwrap();
        assert!(deps
            .deps_into(write.id)
            .any(|d| d.kind == DepKind::Output && d.scope == DepScope::CrossSegment));
    }

    /// Strided accesses: a(2k) vs a(2k+1) never alias (GCD test).
    #[test]
    fn gcd_test_separates_interleaved_accesses() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[64]);
        let q = b.scalar("q");
        let k = b.index("k");
        let w = b.assign_elem(a, vec![AffineExpr::scaled_var(k, 2)], num(1.0));
        let rhs = b.load_elem(a, vec![AffineExpr::scaled_var(k, 2) + ac(1)]);
        let r = b.assign_scalar(q, rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![w, r])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let read = table
            .sites()
            .iter()
            .find(|s| s.var == a && s.access == AccessKind::Read)
            .unwrap();
        assert!(
            !deps.is_sink_of_any(read.id),
            "even/odd elements never alias"
        );
    }

    #[test]
    fn dependence_pretty_printer_mentions_variables() {
        let mut b = ProcBuilder::new("t");
        let a = b.array("a", &[16]);
        let k = b.index("k");
        let rhs = add(b.load_elem(a, vec![av(k) - ac(1)]), num(1.0));
        let s = b.assign_elem(a, vec![av(k)], rhs);
        let body = vec![b.do_loop_labeled("R", k, ac(1), ac(10), vec![s])];
        let region = region_of(&b, &body, "R");
        let (table, deps) = analyze_region_loop(b.vars(), &region);
        let text = dependence_to_string(&table, b.vars(), &deps.deps()[0]);
        assert!(text.contains("a="));
    }
}
