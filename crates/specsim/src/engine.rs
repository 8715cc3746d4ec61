//! The speculation engine: event-ordered execution of HOSE and CASE.
//!
//! Segments (region-loop iterations) are dispatched in program order onto a
//! fixed number of processors. Each in-flight segment owns a bounded
//! [`SpecBuffer`]; the engine interleaves segments by always advancing the
//! one with the smallest local clock, one statement at a time. The routing
//! of each memory access is decided by the reference's idempotency label
//! (Definition 4):
//!
//! * speculative references are tracked in the segment's buffer — reads
//!   search the segment's own buffer, then the buffers of older in-flight
//!   segments (youngest ancestor first, HOSE Property 4), then
//!   non-speculative storage; writes check younger segments for premature
//!   exposed reads (violations, HOSE Property 5) and allocate a dirty entry;
//! * idempotent references bypass the buffer: reads go straight to
//!   non-speculative storage, writes perform the violation check and then
//!   write through;
//! * private references use per-segment private storage (the per-segment
//!   private stacks of Section 5).
//!
//! Violations roll back the offending segment and every younger in-flight
//! segment (Property 2). A non-head segment that overflows its buffer is
//! squashed and stalled until it becomes the oldest; the head absorbs
//! overflow by reading/writing through to non-speculative storage — the
//! serialization effect the paper describes. Segments commit in order
//! (Property 6).

use crate::config::SimConfig;
use crate::report::SimReport;
use crate::run::{ExecMode, SimError};
use crate::storage::{PrivateStore, SpecBuffer};
use refidem_core::label::{IdemCategory, Label, Labeling};
use refidem_ir::exec::{DataStore, SegmentExec};
use refidem_ir::expr::Expr;
use refidem_ir::ids::RefId;
use refidem_ir::lowered::{ExecBuffers, LoweredProc, TierExec};
use refidem_ir::memory::{Addr, Layout, Memory};
use refidem_ir::stmt::LoopStmt;
use refidem_ir::var::VarTable;

/// One processor's scheduling state: everything the engine's
/// per-statement scan reads, packed into a dense per-processor array so the
/// scan never strides over the slots' storage buffers.
#[derive(Clone, Copy, Debug, Default)]
struct Sched {
    /// Segment number in execution (commit) order, 0-based.
    seg: usize,
    /// Local clock (cycles since region entry).
    clock: u64,
    /// A segment occupies the processor (from dispatch to commit or
    /// discard). The processor's resident slot is invisible otherwise.
    live: bool,
    /// The segment has executed its last statement (waiting to commit).
    done: bool,
    /// The segment overflowed as a non-head and waits to become the head.
    stalled: bool,
}

/// One processor's resident segment state: the in-flight segment's
/// remaining flags plus its storage buffers. The slot stays in place
/// across segments, regions and (through the pooled scratch) calls:
/// dispatch resets its flags, and commit, discard and roll-back clear its
/// buffers, so a processor's dense buffers are allocated once.
#[derive(Clone, Debug, Default)]
struct SlotData {
    /// A violation requested this segment's roll-back.
    squash_requested: bool,
    /// An overflow was detected mid-statement; the rest of the statement's
    /// accesses are not tracked and the engine squashes the segment after
    /// the statement completes.
    overflow_poisoned: bool,
    /// Number of times the segment has been rolled back or restarted.
    restarts: u32,
    /// The WHILE continuation check of this attempt has been evaluated
    /// (and held). Always `false` for counted regions.
    cond_checked: bool,
    /// The continuation check evaluated to false: this segment is the
    /// region's dynamic end. Its commit discards all younger segments.
    term_pending: bool,
    /// Earliest simulated time at which the requested roll-back can take
    /// effect (the time the violating producer write happened).
    squash_not_before: u64,
    /// Bounded speculative storage.
    spec: SpecBuffer,
    /// Per-segment private storage (for references labeled `Private`).
    private: PrivateStore,
}

impl SlotData {
    /// Re-targets a clear slot's buffers at a machine shape in place.
    fn prepare(&mut self, capacity: usize, words: u64) {
        self.spec.retarget(capacity, words);
        self.private.retarget(words);
    }

    /// Resets the per-attempt flags (dispatch and every restart).
    fn reset_attempt(&mut self) {
        self.squash_requested = false;
        self.squash_not_before = 0;
        self.overflow_poisoned = false;
        self.cond_checked = false;
        self.term_pending = false;
    }

    /// Requests this segment's roll-back, effective no earlier than
    /// `not_before`.
    #[inline]
    fn request_squash(&mut self, not_before: u64) {
        self.squash_requested = true;
        self.squash_not_before = self.squash_not_before.max(not_before);
    }
}

/// Reuses the allocation of an emptied vector for another element type of
/// the same layout — how the pooled executor vector changes its borrow
/// lifetime between regions (the standard library's in-place `collect`
/// keeps the buffer when the layouts match).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// Per-address presence masks over the in-flight slots: bit `p` of
/// `write[a]` / `read[a]` is set when processor `p`'s buffer holds a
/// written / exposed-read entry for address `a`. The common case — no
/// other in-flight segment has touched an address — is then a single load
/// instead of a probe of every slot's buffer. Disabled (always-scan) for
/// machines with more than 32 processors.
#[derive(Debug, Default)]
struct DepMasks {
    write: Vec<u32>,
    read: Vec<u32>,
    enabled: bool,
}

impl DepMasks {
    /// Re-targets pooled masks at a machine shape, resizing the arrays in
    /// place. A clean engine run retracts every mark it sets (on commit,
    /// roll-back and overflow restart), so reused arrays are already
    /// all-zero and resizing keeps them so — debug builds verify that
    /// instead of paying an unconditional clear.
    fn prepare(&mut self, processors: usize, words: u64) {
        debug_assert!(
            self.write.iter().all(|&m| m == 0) && self.read.iter().all(|&m| m == 0),
            "pooled dependence masks must come back clean"
        );
        self.enabled = processors <= 32;
        let n = if self.enabled { words as usize } else { 0 };
        self.write.resize(n, 0);
        self.read.resize(n, 0);
    }

    /// Clears processor `p`'s bits for every address in `spec`'s journal
    /// (call right before that buffer is cleared or retired).
    fn retract(&mut self, p: usize, spec: &SpecBuffer) {
        if !self.enabled {
            return;
        }
        let clear = !(1u32 << p);
        for addr in spec.touched_addrs() {
            self.write[addr.0 as usize] &= clear;
            self.read[addr.0 as usize] &= clear;
        }
    }

    /// True when some slot other than `p` may hold a written entry for
    /// `addr` (conservatively true when masks are disabled).
    #[inline]
    fn other_writer(&self, p: usize, addr: Addr) -> bool {
        !self.enabled || self.write[addr.0 as usize] & !(1u32 << p) != 0
    }

    /// True when some slot other than `p` may hold an exposed-read entry
    /// for `addr` (conservatively true when masks are disabled).
    #[inline]
    fn other_reader(&self, p: usize, addr: Addr) -> bool {
        !self.enabled || self.read[addr.0 as usize] & !(1u32 << p) != 0
    }

    /// Marks processor `p` as holding a written entry for `addr`.
    #[inline]
    fn mark_write(&mut self, p: usize, addr: Addr) {
        if self.enabled {
            self.write[addr.0 as usize] |= 1 << p;
        }
    }

    /// Marks processor `p` as holding an exposed-read entry for `addr`.
    #[inline]
    fn mark_read(&mut self, p: usize, addr: Addr) {
        if self.enabled {
            self.read[addr.0 as usize] |= 1 << p;
        }
    }
}

/// Reusable engine scratch: every allocation the engine's steady state
/// needs, kept alive across segments, regions and calls so that dispatch,
/// roll-back and commit allocate nothing once the scratch is warm.
/// `simulate_program` reuses one scratch across every region of a
/// schedule, and repeated calls (capacity-ladder sweeps) reuse it through
/// the config's [`ScratchPool`]. It pools:
///
/// * the per-address dependence masks;
/// * one resident slot per processor — the segment flags plus its
///   [`SpecBuffer`]/[`PrivateStore`] pair — so the dense shadow arrays are
///   allocated once per processor, not once per segment: dispatch resets
///   the slot in place, and commit retracts its mask marks and clears it;
/// * the dense scheduler array (each processor's segment, clock and
///   live/done/stalled flags) that the per-statement scan reads;
/// * the executor vector, and one set of segment-executor buffers per
///   processor ([`ExecBuffers`]): within a region a committed segment's
///   executor is rebound to the next segment on its processor, and a
///   successful run parks the buffers here for the next region or call —
///   plus one set for the serial spans between regions;
/// * the CASE label table, refilled from each region's labeling;
/// * the pre-region memory snapshot that serial degradation rewinds to,
///   refilled in place with [`Memory::clone_from`].
///
/// Every buffer is resized in place for the next machine shape or program,
/// so a scratch may move freely between programs, processor counts and
/// capacities. Outside the scratch, a call still allocates its layout,
/// initial memory and report, and each region its segment values.
///
/// Obtain one from a [`ScratchPool`] with [`ScratchPool::take`] and hand it
/// back with [`ScratchPool::restore`] after a *successful* run; on error,
/// drop it (a failed run may leave marks set, and a dropped scratch is
/// simply rebuilt on the next take).
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Resident per-processor slots (all clear between runs).
    slots: Vec<SlotData>,
    /// The dense scheduler array, one entry per processor of the last run.
    sched: Vec<Sched>,
    /// Cross-slot dependence presence masks (see [`DepMasks`]).
    masks: DepMasks,
    /// The (empty) executor vector, kept for its allocation.
    execs: Vec<Option<TierExec<'static>>>,
    /// Parked executor buffers, one per processor.
    exec_bufs: Vec<ExecBuffers>,
    /// Executor buffers of the serial spans between regions.
    pub(crate) serial: ExecBuffers,
    /// The dense label table of the last region.
    labels: LabelTable,
    /// The pre-region snapshot of the last armed region.
    snapshot: Option<Memory>,
}

impl EngineScratch {
    /// A fresh, empty scratch (allocations happen lazily when the first
    /// engine run prepares it).
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// Re-targets the scratch at a machine shape, keeping every allocation:
    /// the masks and every resident slot's buffers are resized in place for
    /// the address space and capacity. Slots and executor buffers of
    /// processors beyond `processors` are kept for a later, wider run.
    fn prepare(&mut self, processors: usize, capacity: usize, words: u64) {
        self.masks.prepare(processors, words);
        if self.exec_bufs.len() < processors {
            self.exec_bufs.resize_with(processors, ExecBuffers::default);
        }
        if self.slots.len() < processors {
            self.slots.resize_with(processors, SlotData::default);
        }
        for slot in &mut self.slots[..processors] {
            slot.prepare(capacity, words);
        }
        debug_assert!(
            self.sched.iter().all(|s| !s.live),
            "pooled slots must come back retired"
        );
        self.sched.clear();
        self.sched.resize(processors, Sched::default());
    }

    /// Records `memory` as the pre-region snapshot, reusing the previous
    /// snapshot's allocation.
    pub(crate) fn save_snapshot(&mut self, memory: &Memory) {
        match &mut self.snapshot {
            Some(snapshot) => snapshot.clone_from(memory),
            None => self.snapshot = Some(memory.clone()),
        }
    }

    /// Rewinds `memory` to the last [`save_snapshot`](Self::save_snapshot).
    pub(crate) fn rewind(&self, memory: &mut Memory) {
        memory.clone_from(self.snapshot.as_ref().expect("snapshot saved"));
    }
}

/// A shareable pool of retired [`EngineScratch`] values — the allocation
/// reuse that survives **across threads**.
///
/// The engine's scratch reuse was originally a bare `thread_local!`, which
/// [`SweepExec`](crate::sweep::SweepExec) silently defeated: every
/// `SweepPlan::run` spawns *fresh* scoped worker threads, so each sweep
/// re-warmed its scratch from cold and the pooled memory died with the
/// worker. This pool is a cheap process-wide handle instead (`Clone`
/// shares the underlying storage, like
/// [`LoweredCache`](refidem_ir::lowered::LoweredCache)): workers of one
/// sweep return their scratch on completion and the next sweep's workers —
/// different OS threads — pick the warm allocations straight back up.
///
/// [`ScratchPool::default`] returns the **process-global** pool, which is
/// what a default [`SimConfig`] carries; use
/// [`ScratchPool::fresh`] for an isolated pool (tests, memory-sensitive
/// embedders). The pool holds at most [`ScratchPool::MAX_POOLED`] retired
/// values — enough for every worker of the widest sweep, while bounding
/// the memory a burst of workers can park.
#[derive(Clone, Debug, Default)]
pub struct ScratchPool {
    inner: std::sync::Arc<std::sync::Mutex<Vec<EngineScratch>>>,
}

/// Handle identity: two pool values are equal when they share the same
/// underlying storage (what lets [`SimConfig`] keep a
/// derived `PartialEq`).
impl PartialEq for ScratchPool {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl ScratchPool {
    /// Most retired scratch values the pool will hold; `restore` beyond
    /// this drops the excess scratch instead of parking it.
    pub const MAX_POOLED: usize = 64;

    /// Creates an empty pool that shares storage with nothing else.
    pub fn fresh() -> Self {
        ScratchPool::default()
    }

    /// The **process-global** pool: every handle returned here shares one
    /// underlying store, so scratch survives arbitrarily many short-lived
    /// worker threads.
    pub fn global() -> Self {
        static GLOBAL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ScratchPool::fresh).clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EngineScratch>> {
        self.inner.lock().expect("scratch pool poisoned")
    }

    /// Takes a pooled scratch, or a fresh one when the pool is empty.
    pub fn take(&self) -> EngineScratch {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch for a later [`take`](Self::take) — possibly by a
    /// different thread. Only scratch from *successful* runs may come back:
    /// a failed run's masks can carry stale marks (drop it instead; the
    /// next take simply rebuilds).
    pub fn restore(&self, scratch: EngineScratch) {
        let mut pool = self.lock();
        if pool.len() < Self::MAX_POOLED {
            pool.push(scratch);
        }
    }

    /// Number of scratch values currently parked in the pool.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no scratch is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The dense per-site label table both runtimes consult on every access,
/// indexed by `RefId::index`. It is empty under HOSE, where every site is
/// speculative; sites beyond the table default to `Speculative`, like
/// `Labeling::label`.
#[derive(Debug, Default)]
pub(crate) struct LabelTable {
    labels: Vec<Label>,
    has_private: bool,
}

impl LabelTable {
    pub(crate) fn new(mode: ExecMode, labeling: &Labeling) -> Self {
        let mut table = LabelTable::default();
        table.refill(mode, labeling);
        table
    }

    /// Rebuilds the table for another region in place, keeping its
    /// allocation.
    pub(crate) fn refill(&mut self, mode: ExecMode, labeling: &Labeling) {
        self.labels.clear();
        if mode == ExecMode::Case {
            for (site, label) in labeling.iter() {
                if site.index() >= self.labels.len() {
                    self.labels.resize(site.index() + 1, Label::Speculative);
                }
                self.labels[site.index()] = label;
            }
        }
        self.has_private = self
            .labels
            .contains(&Label::Idempotent(IdemCategory::Private));
    }

    #[inline]
    pub(crate) fn label_of(&self, site: RefId) -> Label {
        self.labels
            .get(site.index())
            .copied()
            .unwrap_or(Label::Speculative)
    }

    /// True when some site is labeled private, so every segment pays the
    /// private-stack setup.
    pub(crate) fn has_private(&self) -> bool {
        self.has_private
    }
}

/// Runs one region speculatively. `memory` is the non-speculative storage,
/// already holding the effects of the code preceding the region.
pub(crate) struct Engine<'p> {
    cfg: &'p SimConfig,
    vars: &'p VarTable,
    layout: &'p Layout,
    region: &'p LoopStmt,
    /// The region body compiled to bytecode, shared by every segment
    /// (`None` when the region is tree-walked).
    lowered: Option<&'p LoweredProc>,
    /// The region's WHILE continuation condition (`None` for a counted
    /// region), fixed for the whole run.
    while_cond: Option<&'p Expr>,
    /// Some fault is scheduled, fixed for the whole run.
    faults_armed: bool,
    labels: LabelTable,
    iter_values: Vec<i64>,

    execs: Vec<Option<TierExec<'p>>>,
    /// Dense scheduler array, indexed by processor.
    sched: Vec<Sched>,
    /// Resident slots, indexed by processor (possibly longer than `sched`:
    /// the pooled scratch keeps the slots of wider earlier runs).
    slots: Vec<SlotData>,
    /// Pooled buffers + dependence masks, owned by the caller (see
    /// [`EngineScratch`]). The vectors above are borrowed from it for the
    /// run and handed back by a successful [`run`](Self::run).
    scratch: &'p mut EngineScratch,
    memory: &'p mut Memory,
    head: usize,
    next_dispatch: usize,
    /// A committed segment's WHILE continuation check failed; the region
    /// is over regardless of how many counted segments remain.
    terminated: bool,
    last_commit_time: u64,
    /// Statements executed since the last commit — the livelock watchdog's
    /// counter (see [`Governor`](crate::fault::Governor)).
    stmts_since_commit: u64,
    report: SimReport,
}

/// What one engine step executed: a body statement (and whether the
/// segment has more), or a WHILE continuation check (and whether it held).
enum Step {
    Body { more: bool },
    Cond { holds: bool },
}

impl<'p> Engine<'p> {
    /// Creates an engine for one region execution. `lowered` is the
    /// compiled region body, or `None` to tree-walk it (the caller chose
    /// the tier; the engine runs whatever bytecode it is handed).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: &'p SimConfig,
        mode: ExecMode,
        labeling: &'p Labeling,
        vars: &'p VarTable,
        layout: &'p Layout,
        region: &'p LoopStmt,
        lowered: Option<&'p LoweredProc>,
        iter_values: Vec<i64>,
        scratch: &'p mut EngineScratch,
        memory: &'p mut Memory,
    ) -> Self {
        let processors = cfg.processors.max(1);
        scratch.prepare(processors, cfg.spec_capacity, layout.total_words());
        let mut labels = std::mem::take(&mut scratch.labels);
        labels.refill(mode, labeling);
        let mut execs = recycle(std::mem::take(&mut scratch.execs));
        execs.resize_with(processors, || None);
        Engine {
            cfg,
            vars,
            layout,
            region,
            lowered,
            while_cond: region.while_cond.as_ref(),
            faults_armed: !cfg.faults.is_empty(),
            labels,
            iter_values,
            execs,
            sched: std::mem::take(&mut scratch.sched),
            slots: std::mem::take(&mut scratch.slots),
            scratch,
            memory,
            head: 0,
            next_dispatch: 0,
            terminated: false,
            last_commit_time: 0,
            stmts_since_commit: 0,
            report: SimReport {
                mode: Some(mode),
                ..Default::default()
            },
        }
    }

    /// Runs the region to completion and returns the report.
    pub(crate) fn run(mut self) -> Result<SimReport, SimError> {
        let total = self.iter_values.len();
        self.report.segments = total;
        // Initial dispatch.
        for p in 0..self.sched.len() {
            if self.next_dispatch >= total {
                break;
            }
            self.dispatch(p, 0)?;
        }
        while self.head < total && !self.terminated {
            let head_seg = self.head;
            let last_commit_time = self.last_commit_time;
            // One pass over the dense scheduler array: locate the head
            // (unstalling it if an overflow stalled it), find the runnable
            // slot with the smallest clock (ties to the lowest processor
            // index), and track the earliest clock of any runnable non-head
            // segment. The head commits only once every other runnable
            // segment has simulated past its finish time, so committed
            // values do not become visible "in the past" of a segment that
            // has not executed up to that point yet.
            let mut head_state: Option<(usize, bool, u64)> = None;
            let mut runnable: Option<(usize, u64)> = None;
            let mut min_other = u64::MAX;
            for (p, s) in self.sched.iter_mut().enumerate() {
                if !s.live {
                    continue;
                }
                let is_head = s.seg == head_seg;
                if is_head {
                    if s.stalled {
                        s.stalled = false;
                        s.clock = s.clock.max(last_commit_time);
                    }
                    head_state = Some((p, s.done, s.clock));
                }
                if s.done || s.stalled {
                    continue;
                }
                let better = match runnable {
                    None => true,
                    Some((_, best)) => s.clock < best,
                };
                if better {
                    runnable = Some((p, s.clock));
                }
                if !is_head {
                    min_other = min_other.min(s.clock);
                }
            }
            if let Some((p, true, finish)) = head_state {
                if min_other >= finish {
                    self.commit(p)?;
                    continue;
                }
            }
            let Some((p, _)) = runnable else {
                return Err(SimError::Deadlock);
            };
            self.step_slot(p)?;
            if self.report.statements > self.cfg.max_statements {
                return Err(SimError::StatementBudgetExceeded);
            }
        }
        self.report.region_cycles = self.last_commit_time;
        // Hand the pooled vectors back for the next region or call: the
        // executor buffers, the (now all-retired) slots and scheduler
        // array, the emptied executor vector and the label table.
        let Engine {
            scratch,
            mut execs,
            sched,
            slots,
            labels,
            report,
            ..
        } = self;
        for (bufs, exec) in scratch.exec_bufs.iter_mut().zip(execs.drain(..)) {
            if let Some(parked) = exec.and_then(TierExec::into_buffers) {
                *bufs = parked;
            }
        }
        scratch.execs = recycle(execs);
        scratch.sched = sched;
        scratch.slots = slots;
        scratch.labels = labels;
        Ok(report)
    }

    fn dispatch(&mut self, p: usize, start_time: u64) -> Result<(), SimError> {
        let seg = self.next_dispatch;
        self.next_dispatch += 1;
        let mut clock = start_time + self.cfg.dispatch_cost;
        if self.labels.has_private() {
            clock += self.cfg.private_setup_cost;
        }
        // The processor's resident slot was cleared when its previous
        // segment retired; only the flags need a reset.
        let slot = &mut self.slots[p];
        debug_assert!(slot.spec.is_empty(), "a retired slot is left clear");
        slot.reset_attempt();
        slot.restarts = 0;
        self.sched[p] = Sched {
            seg,
            clock,
            live: true,
            done: false,
            stalled: false,
        };
        let env = [(self.region.index, self.iter_values[seg])];
        match &mut self.execs[p] {
            // The executor of the segment that last ran on this processor
            // stays behind on commit; rebinding it is `new` without the
            // allocations.
            Some(exec) => exec.rebind(&env),
            empty => {
                *empty = Some(TierExec::with_buffers(
                    self.lowered,
                    self.vars,
                    self.layout,
                    &self.region.body,
                    &env,
                    &mut self.scratch.exec_bufs[p],
                ));
            }
        }
        // Injected dispatch failures. The simulator has no worker thread
        // to unwind, so an injected "panic" is returned directly as the
        // typed error the real-thread runtime would have reported after
        // catching it — same identity, same rendering.
        if self.cfg.faults.worker_panic(seg) {
            return Err(SimError::WorkerPanic {
                thread: p,
                segment: Some(seg),
                segments: self.iter_values.len(),
                message: "injected segment fault".to_string(),
            });
        }
        if self.cfg.faults.worker_error(seg) {
            return Err(SimError::Injected { segment: seg });
        }
        Ok(())
    }

    /// Deterministic fault injection, non-head segments only: the head is
    /// non-speculative and cannot misspeculate (which also keeps the
    /// one-processor degenerate case injection-free, preserving its
    /// zero-violation invariant). Every injection restarts the segment and
    /// thereby bumps its attempt number, so each (segment, attempt)
    /// decision fires at most once. Returns true when an injection consumed
    /// the step.
    fn inject_fault(&mut self, p: usize) -> Result<bool, SimError> {
        let Sched {
            seg, clock: now, ..
        } = self.sched[p];
        let attempt = self.slots[p].restarts;
        if seg == self.head {
            return Ok(false);
        }
        if self.cfg.faults.force_violation(seg, attempt) {
            // Mirror a real flow violation: flag it and squash this
            // segment plus every younger in-flight one.
            self.report.violations += 1;
            for (s, slot) in self.sched.iter().zip(&mut self.slots) {
                if s.live && s.seg >= seg {
                    slot.request_squash(now);
                }
            }
            self.process_squashes(now)?;
            return Ok(true);
        }
        if self.cfg.faults.spurious_bump(seg, attempt) {
            // A squash with no underlying violation — counted as a
            // rollback, like the generation bump it models.
            self.restart_slot(p, now + self.cfg.rollback_penalty, true)?;
            return Ok(true);
        }
        if self.cfg.faults.force_overflow(seg, attempt) {
            self.report.overflow_stalls += 1;
            self.restart_slot(p, now, false)?;
            self.sched[p].stalled = true;
            return Ok(true);
        }
        Ok(false)
    }

    /// Advances the segment on processor `p` by one statement unit: a body
    /// statement, or — first in every attempt of a WHILE region's segment —
    /// the continuation check.
    fn step_slot(&mut self, p: usize) -> Result<(), SimError> {
        self.sched[p].clock += self.cfg.stmt_cost;
        if self.faults_armed && self.inject_fault(p)? {
            return Ok(());
        }
        let violations_before = self.report.violations;
        // A WHILE region's continuation check is evaluated as one statement
        // unit before the segment's body, through the same labeled access
        // path (and therefore the same latencies, dependence tracking and
        // overflow handling) as any other statement of the segment.
        let cond = self.while_cond.filter(|_| !self.slots[p].cond_checked);
        // Split borrows: the executor lives in `execs`, the access context
        // borrows the sibling fields — the stepping slot once, its peers
        // around it — for the whole step.
        let Engine {
            cfg,
            vars,
            layout,
            region,
            labels,
            iter_values,
            execs,
            sched,
            slots,
            scratch,
            memory,
            report,
            head,
            ..
        } = self;
        let Sched { seg, clock, .. } = sched[p];
        let (before, rest) = slots.split_at_mut(p);
        let (own, after) = rest.split_first_mut().expect("slot of a live processor");
        let mut ctx = AccessCtx {
            cfg,
            labels,
            memory,
            masks: &mut scratch.masks,
            report,
            sched,
            before,
            own,
            after,
            p,
            seg,
            is_head: seg == *head,
            clock,
        };
        let step = match cond {
            Some(cond) => {
                let env = [(region.index, iter_values[seg])];
                SegmentExec::eval_expr(vars, layout, &env, cond, &mut ctx).map(|value| Step::Cond {
                    holds: value != 0.0,
                })
            }
            None => execs[p]
                .as_mut()
                .expect("exec present for runnable slot")
                .step(&mut ctx)
                .map(|more| Step::Body { more }),
        }
        .map_err(SimError::Exec)?;
        let now = ctx.clock;
        sched[p].clock = now;
        self.report.statements += 1;
        self.stmts_since_commit += 1;
        if self.stmts_since_commit > self.cfg.governor.livelock_statements {
            return Err(SimError::Livelock {
                statements: self.stmts_since_commit,
            });
        }
        if let Step::Body { more: false } = step {
            self.sched[p].done = true;
        }
        // Track peak speculative-storage occupancy.
        let occ = self.slots[p].spec.len();
        self.report.spec_peak_occupancy = self.report.spec_peak_occupancy.max(occ);
        // Roll back segments flagged by violations during this statement
        // (squash requests are only ever set together with a violation, so
        // an unchanged count means there is nothing to process). A
        // speculative read in a continuation check can find that an older
        // segment already wrote its address (a premature read): the reader
        // is among the rolled-back segments, so it re-evaluates the check
        // after its restart instead of acting on the stale value.
        if self.report.violations != violations_before {
            self.process_squashes(now)?;
            if let Step::Cond { .. } = step {
                return Ok(());
            }
        }
        // Handle an overflow detected during this statement.
        if self.slots[p].overflow_poisoned {
            self.restart_slot(p, now, false)?;
            self.sched[p].stalled = true;
            return Ok(());
        }
        if let Step::Cond { holds } = step {
            if holds {
                self.slots[p].cond_checked = true;
            } else {
                // Dynamic end of the region: this segment executes no body
                // statement and, once it commits in order, discards every
                // younger segment.
                self.slots[p].term_pending = true;
                self.sched[p].done = true;
            }
        }
        Ok(())
    }

    /// Rolls back every in-flight segment whose squash was requested. The
    /// roll-back takes effect no earlier than the producing write that
    /// triggered it. Retired slots are skipped.
    fn process_squashes(&mut self, now: u64) -> Result<(), SimError> {
        for p in 0..self.sched.len() {
            let slot = &self.slots[p];
            if self.sched[p].live && slot.squash_requested {
                let restart = now.max(slot.squash_not_before) + self.cfg.rollback_penalty;
                self.restart_slot(p, restart, true)?;
            }
        }
        Ok(())
    }

    /// Resets a segment to its initial state. `count_rollback` separates
    /// violation roll-backs from overflow restarts in the statistics.
    /// Fails when the restart trips a governor budget.
    fn restart_slot(
        &mut self,
        p: usize,
        restart_time: u64,
        count_rollback: bool,
    ) -> Result<(), SimError> {
        let slot = &mut self.slots[p];
        self.scratch.masks.retract(p, &slot.spec);
        slot.spec.clear();
        slot.private.clear();
        slot.reset_attempt();
        slot.restarts += 1;
        let restarts = slot.restarts;
        let s = &mut self.sched[p];
        s.done = false;
        s.stalled = false;
        s.clock = restart_time;
        if self.labels.has_private() {
            s.clock += self.cfg.private_setup_cost;
        }
        let report = &mut self.report;
        report.max_segment_restarts = report.max_segment_restarts.max(restarts);
        if restarts > self.cfg.governor.max_segment_restarts {
            return Err(SimError::RestartBudget {
                segment: s.seg,
                restarts,
            });
        }
        if let Some(exec) = self.execs[p].as_mut() {
            exec.reset();
        }
        if count_rollback {
            report.rollbacks += 1;
            if report.rollbacks > self.cfg.governor.max_region_rollbacks {
                return Err(SimError::RollbackBudget {
                    rollbacks: report.rollbacks,
                });
            }
        }
        Ok(())
    }

    /// Retires the segment on processor `p`: retracts its mask marks,
    /// clears its resident buffers and frees the processor.
    fn retire(&mut self, p: usize) {
        let slot = &mut self.slots[p];
        self.scratch.masks.retract(p, &slot.spec);
        slot.spec.clear();
        slot.private.clear();
        self.sched[p].live = false;
    }

    /// Commits the head segment occupying slot `p` and dispatches the next
    /// segment onto the freed processor.
    fn commit(&mut self, p: usize) -> Result<(), SimError> {
        let total = self.iter_values.len();
        // Commit in place, straight from the journal: it holds each address
        // once, so the store order cannot be observed.
        let slot = &self.slots[p];
        let mut entries = 0u64;
        for (addr, value) in slot.spec.written() {
            self.memory.store(addr, value);
            entries += 1;
        }
        let commit_time = self.sched[p].clock + self.cfg.commit_per_entry * entries;
        let terminator = slot.term_pending;
        self.report.commits += 1;
        self.report.committed_entries += entries;
        self.last_commit_time = self.last_commit_time.max(commit_time);
        self.head += 1;
        // The slot stays resident for the next segment dispatched onto this
        // processor (and, via the pooled scratch, for the next region or
        // call); the executor stays in `execs[p]` for the next dispatch to
        // rebind.
        self.retire(p);
        self.stmts_since_commit = 0;
        if terminator {
            // The committed head's continuation check failed: the region is
            // over. Discard every younger in-flight segment — their
            // buffered state never reached memory (a while region has no
            // non-private idempotent write-through sites; see
            // `RegionAnalysis`'s segment view) — and stop dispatching.
            for q in 0..self.sched.len() {
                if self.sched[q].live {
                    self.retire(q);
                }
            }
            self.report.segments = self.head;
            self.next_dispatch = total;
            self.terminated = true;
            return Ok(());
        }
        if self.next_dispatch < total {
            self.dispatch(p, commit_time)?;
        }
        Ok(())
    }
}

/// The [`DataStore`] a stepping segment sees: routes every access according
/// to its label, charges latencies, tracks dependences and flags violations
/// and overflows.
///
/// Built once per step: it borrows the stepping slot once and its peers
/// around it, and fixes the segment number and head flag for the step (the
/// head only moves on commit, between steps). The segment's clock is
/// carried here for the step and written back afterwards.
struct AccessCtx<'a> {
    cfg: &'a SimConfig,
    labels: &'a LabelTable,
    memory: &'a mut Memory,
    masks: &'a mut DepMasks,
    report: &'a mut SimReport,
    /// Every processor's scheduling state (the peers' segment numbers and
    /// liveness).
    sched: &'a [Sched],
    /// Slots of processors `0..p`.
    before: &'a mut [SlotData],
    /// The stepping segment's slot.
    own: &'a mut SlotData,
    /// Slots of processors `p + 1..`.
    after: &'a mut [SlotData],
    p: usize,
    seg: usize,
    is_head: bool,
    clock: u64,
}

impl AccessCtx<'_> {
    /// The other in-flight segments: `(segment number, slot)` of every live
    /// processor but the stepping one.
    fn peers(&mut self) -> impl Iterator<Item = (usize, &mut SlotData)> + '_ {
        let (lower, upper) = self.sched.split_at(self.p);
        lower
            .iter()
            .zip(self.before.iter_mut())
            .chain(upper[1..].iter().zip(self.after.iter_mut()))
            .filter(|(s, _)| s.live)
            .map(|(s, slot)| (s.seg, slot))
    }

    /// Flags violations: an older segment writes `addr` while a younger
    /// in-flight segment has already performed an exposed (speculative) read
    /// of it. The offending segment and every younger one are rolled back.
    fn check_violations(&mut self, addr: Addr) {
        if !self.masks.other_reader(self.p, addr) {
            return;
        }
        let writer = self.seg;
        let min_violating = self
            .peers()
            .filter(|(seg, slot)| *seg > writer && slot.spec.has_exposed_read(addr))
            .map(|(seg, _)| seg)
            .min();
        if let Some(min_seg) = min_violating {
            self.report.violations += 1;
            let detection_time = self.clock;
            for (seg, slot) in self.peers() {
                if seg >= min_seg {
                    slot.request_squash(detection_time);
                }
            }
        }
    }

    /// Forwards a value from the youngest older in-flight segment holding a
    /// written entry for `addr`, together with the time that write happened.
    fn forward_from_ancestor(&mut self, addr: Addr) -> Option<(f64, u64)> {
        let reader = self.seg;
        self.peers()
            .filter(|(seg, _)| *seg < reader)
            .filter_map(|(seg, slot)| {
                let entry = slot.spec.get(addr).filter(|e| e.written)?;
                Some((seg, entry.value, entry.last_write_time))
            })
            .max_by_key(|(seg, ..)| *seg)
            .map(|(_, value, time)| (value, time))
    }

    /// Flags a premature read: the reader (and every younger segment) is
    /// rolled back because an older in-flight segment has already produced a
    /// newer value for `addr` at a later simulated time (`write_time`). The
    /// roll-back takes effect at the producing write, matching the moment
    /// the hardware detects the violation.
    fn flag_premature_read(&mut self, write_time: u64) {
        self.report.violations += 1;
        self.own.request_squash(write_time);
        let reader = self.seg;
        for (seg, slot) in self.peers() {
            if seg >= reader {
                slot.request_squash(write_time);
            }
        }
    }
}

impl DataStore for AccessCtx<'_> {
    fn read(&mut self, site: RefId, addr: Addr) -> f64 {
        match self.labels.label_of(site) {
            Label::Idempotent(IdemCategory::Private) => {
                self.report.private_reads += 1;
                self.clock += self.cfg.lat_nonspec;
                match self.own.private.get(addr) {
                    Some(v) => v,
                    None => self.memory.load(addr),
                }
            }
            Label::Idempotent(_) => {
                // Idempotent reads completely bypass the speculative storage
                // and leave no information in it (Definition 4).
                self.report.nonspec_reads += 1;
                self.clock += self.cfg.lat_nonspec;
                self.memory.load(addr)
            }
            Label::Speculative => {
                self.report.spec_reads += 1;
                // Own buffer first — the one probe of its dense index this
                // access makes.
                if let Some(pos) = self.own.spec.find(addr) {
                    self.clock += self.cfg.lat_spec;
                    return self.own.spec.entry_at(pos).value;
                }
                if self.own.overflow_poisoned {
                    // The segment is already being squashed; do not track
                    // anything further.
                    self.clock += self.cfg.lat_spec;
                    return self.memory.load(addr);
                }
                // Forward from the youngest ancestor, else non-speculative
                // storage (HOSE Property 4). The mask makes the common "no
                // other in-flight writer" case a single load.
                let forwarded = if self.masks.other_writer(self.p, addr) {
                    self.forward_from_ancestor(addr)
                } else {
                    None
                };
                if let Some((_, write_time)) = forwarded {
                    if write_time > self.clock {
                        // In simulated time this read happens before the
                        // older segment's write: the read is premature, a
                        // flow-dependence violation (HOSE Property 5).
                        self.flag_premature_read(write_time);
                        self.clock += self.cfg.lat_nonspec;
                        return self.memory.load(addr);
                    }
                }
                let (value, latency) = match forwarded {
                    Some((v, _)) => {
                        self.report.forwards += 1;
                        (v, self.cfg.lat_forward)
                    }
                    None => (self.memory.load(addr), self.cfg.lat_nonspec),
                };
                self.clock += latency;
                // Record the exposed read for dependence tracking; the
                // address is known absent, so this allocation may overflow
                // the buffer.
                if self.own.spec.is_full() {
                    if self.is_head {
                        // The head is non-speculative: it cannot violate and
                        // need not track; absorb the overflow.
                        self.report.overflow_writethrough += 1;
                    } else {
                        self.report.overflow_stalls += 1;
                        self.own.overflow_poisoned = true;
                    }
                    return value;
                }
                self.own
                    .spec
                    .push_new(addr)
                    .apply_exposed_read(value, self.clock);
                self.masks.mark_read(self.p, addr);
                value
            }
        }
    }

    fn write(&mut self, site: RefId, addr: Addr, value: f64) {
        match self.labels.label_of(site) {
            Label::Idempotent(IdemCategory::Private) => {
                self.report.private_writes += 1;
                self.clock += self.cfg.lat_nonspec;
                self.own.private.insert(addr, value);
            }
            Label::Idempotent(_) => {
                // Idempotent writes enforce dependences by checking for
                // prematurely executed speculative loads, then write through
                // to non-speculative storage (Definition 4).
                self.report.nonspec_writes += 1;
                if !self.own.squash_requested {
                    self.check_violations(addr);
                }
                self.clock += self.cfg.lat_nonspec;
                self.memory.store(addr, value);
            }
            Label::Speculative => {
                self.report.spec_writes += 1;
                if !self.own.squash_requested {
                    self.check_violations(addr);
                }
                if self.own.overflow_poisoned {
                    self.clock += self.cfg.lat_spec;
                    return;
                }
                let entry = match self.own.spec.find(addr) {
                    Some(pos) => self.own.spec.entry_at(pos),
                    None if self.own.spec.is_full() => {
                        if self.is_head {
                            self.report.overflow_writethrough += 1;
                            self.clock += self.cfg.lat_nonspec;
                            self.memory.store(addr, value);
                        } else {
                            self.report.overflow_stalls += 1;
                            self.own.overflow_poisoned = true;
                            self.clock += self.cfg.lat_spec;
                        }
                        return;
                    }
                    None => self.own.spec.push_new(addr),
                };
                self.clock += self.cfg.lat_spec;
                entry.apply_write(value, self.clock);
                // Every tracked write sets the write-mask bit — including a
                // write to an entry the segment holds as an exposed read,
                // whose bit is not set yet — or younger readers of `addr`
                // would miss the forward (and the violation check).
                self.masks.mark_write(self.p, addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::run::{run_sequential, simulate_region, ExecMode};
    use crate::SimConfig;
    use refidem_core::label::label_program_region_by_name;
    use refidem_ir::build::{ac, add, av, num, ProcBuilder};
    use refidem_ir::program::Program;

    #[test]
    fn a_read_then_written_entry_is_visible_to_younger_readers() {
        // Every segment first reads a(k) (an exposed-read entry), then
        // writes it (the same entry, now dirty); the next segment reads
        // a(k-1) after that write in simulated time. The younger read must
        // see the older segment's write — forwarded, or flagged as a
        // violation and re-executed — which needs the write-mask bit set on
        // the existing-entry write path, not only when the write allocates.
        let mut b = ProcBuilder::new("main");
        let a = b.array("a", &[16]);
        let c = b.array("c", &[16]);
        let k = b.index("k");
        b.live_out(&[a, c]);
        let bump = add(b.load_elem(a, vec![av(k)]), num(1.0));
        let s1 = b.assign_elem(a, vec![av(k)], bump);
        let older = b.load_elem(a, vec![av(k) - ac(1)]);
        let s2 = b.assign_elem(c, vec![av(k)], older);
        let region = b.do_loop_labeled("RW", k, ac(2), ac(9), vec![s1, s2]);
        let mut p = Program::new("read-then-write");
        p.add_procedure(b.build(vec![region]));
        let labeled = label_program_region_by_name(&p, "RW").unwrap();
        for processors in [2, 4] {
            let cfg = SimConfig::default().processors(processors).capacity(16);
            let truth = run_sequential(&p, &labeled, &cfg).unwrap();
            for mode in [ExecMode::Hose, ExecMode::Case] {
                let out = simulate_region(&p, &labeled, mode, &cfg).unwrap();
                let diff = truth.memory.diff(&out.memory, 4);
                assert!(diff.is_empty(), "p{processors} {mode}: {diff:?}");
                assert!(
                    out.report.forwards > 0,
                    "p{processors} {mode}: younger reads are forwarded"
                );
            }
        }
    }
}
