//! Speculative storage buffers.
//!
//! Each in-flight segment owns one bounded [`SpecBuffer`] (HOSE Property 4:
//! "Each segment has its own speculative storage. It is empty at the
//! beginning of each segment's execution and after each roll-back").
//! Entries hold both data values and the reference-tracking information the
//! speculation engine needs (HOSE Property 5): whether the location was
//! written, whether it was read *exposed* (the value came from outside the
//! segment — the reads that can violate cross-segment flow dependences), and
//! when the first exposed read happened.
//!
//! The buffer is a **dense, epoch-versioned shadow array** over the
//! procedure's flat address space: [`Layout`](refidem_ir::memory::Layout)
//! assigns every data word a dense address in `0..total_words`, so lookup
//! and allocation are direct array indexing instead of a `BTreeMap`
//! traversal. A per-buffer epoch counter plus per-address generation
//! stamps make [`SpecBuffer::clear`] (roll-back/commit) O(1) — stale
//! entries are invalidated by bumping the epoch, not by touching them —
//! and a journal of the addresses touched in the current epoch makes
//! occupancy tracking, overflow checks and [`SpecBuffer::dirty_entries`]
//! proportional to the number of *touched* entries, never to the address
//! space.

use refidem_ir::memory::Addr;

/// One speculative-storage entry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpecEntry {
    /// Latest value written or read into the entry.
    pub value: f64,
    /// The segment wrote this location (the entry is dirty and will be
    /// committed).
    pub written: bool,
    /// The segment performed an exposed read of this location (the value
    /// was consumed from an ancestor segment or from non-speculative
    /// storage before any local write).
    pub exposed_read: bool,
    /// Time of the first exposed read (for diagnostics; any exposed read is
    /// premature with respect to a later older-segment write).
    pub first_read_time: u64,
    /// Time of the most recent write (used to detect reads that execute
    /// before an older segment's write in simulated time even though the
    /// write was processed first).
    pub last_write_time: u64,
}

impl SpecEntry {
    /// Applies a write of `value` performed at time `now`. Every write path
    /// of both runtimes goes through here.
    #[inline]
    pub fn apply_write(&mut self, value: f64, now: u64) {
        self.value = value;
        self.written = true;
        self.last_write_time = now;
    }

    /// Applies an exposed read that obtained `value` from outside the
    /// segment at time `now`: the first such read stamps the time, and a
    /// locally written value is never clobbered. Every exposed-read path
    /// goes through here.
    #[inline]
    pub fn apply_exposed_read(&mut self, value: f64, now: u64) {
        if !self.exposed_read {
            self.exposed_read = true;
            self.first_read_time = now;
        }
        if !self.written {
            self.value = value;
        }
    }
}

/// Per-address slot of the dense index: the epoch the address was last
/// touched in, and where its entry lives in the compact journal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct IndexSlot {
    stamp: u32,
    pos: u32,
}

/// A bounded, per-segment speculative storage buffer over a dense address
/// space of `0..address_words`.
///
/// Layout: a dense 8-byte-per-word *index* (`(epoch stamp, position)`),
/// plus a compact journal of `(address, entry)` pairs in touch order whose
/// length is bounded by the buffer capacity. Lookups are O(1) array
/// indexing; allocation appends to the journal; `clear` bumps the epoch
/// (O(1)) so a fresh segment pays only the index allocation — and the
/// engine pools buffers across segments, so even that happens once per
/// processor.
///
/// ```
/// use refidem_specsim::SpecBuffer;
/// use refidem_ir::memory::Addr;
///
/// let mut buf = SpecBuffer::new(2, 16);
/// assert_eq!(buf.find(Addr(3)), None);
/// buf.push_new(Addr(3)).apply_exposed_read(1.5, 10);
/// buf.push_new(Addr(7)).apply_write(2.0, 11);
/// assert!(buf.has_exposed_read(Addr(3)) && buf.has_written(Addr(7)));
/// let pos = buf.find(Addr(7)).expect("resident");
/// buf.entry_at(pos).apply_write(2.5, 12); // a hit allocates nothing
/// assert!(buf.find(Addr(9)).is_none() && buf.is_full(), "capacity 2 is full");
/// assert_eq!(buf.written().collect::<Vec<_>>(), vec![(Addr(7), 2.5)]);
/// buf.clear(); // O(1) epoch bump, e.g. on roll-back
/// assert!(buf.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecBuffer {
    index: Vec<IndexSlot>,
    journal: Vec<(u64, SpecEntry)>,
    epoch: u32,
    capacity: usize,
    peak: usize,
}

impl SpecBuffer {
    /// Creates an empty buffer with the given capacity (in entries) over an
    /// address space of `address_words` words (the owning procedure's
    /// [`Layout::total_words`](refidem_ir::memory::Layout::total_words)).
    pub fn new(capacity: usize, address_words: u64) -> Self {
        let words = address_words as usize;
        SpecBuffer {
            index: vec![IndexSlot::default(); words],
            journal: Vec::with_capacity(capacity.min(words)),
            epoch: 1,
            capacity,
            peak: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The address-space size (in words) the buffer was created over.
    pub fn address_words(&self) -> u64 {
        self.index.len() as u64
    }

    /// Re-targets an **empty** buffer at a different capacity, so a pooled
    /// buffer can be reused across sweep points without reallocating its
    /// dense index. Panics when entries are occupied (capacity changes
    /// mid-segment have no meaning).
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(
            self.journal.is_empty(),
            "capacity can only change on an empty buffer"
        );
        self.capacity = capacity;
    }

    /// Re-targets an **empty** buffer at another capacity and address
    /// space in place, keeping its allocations (the engine's resident slots
    /// move between programs and capacity points this way). Index slots
    /// kept from earlier epochs stay stale, and new ones start unstamped,
    /// so the buffer stays empty.
    pub(crate) fn retarget(&mut self, capacity: usize, address_words: u64) {
        self.set_capacity(capacity);
        self.index
            .resize(address_words as usize, IndexSlot::default());
        if self.epoch == 0 {
            // A `Default` buffer: move off the unstamped epoch.
            self.epoch = 1;
        }
    }

    /// Highest occupancy observed since the last clear.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The journal position of `addr`'s entry in the current epoch, or
    /// `None` when the buffer holds no entry for it. This is the one probe
    /// of the dense index an access needs: both runtimes follow it with
    /// [`entry_at`](Self::entry_at) on a hit, or with
    /// [`is_full`](Self::is_full) and [`push_new`](Self::push_new) on a
    /// miss.
    #[inline]
    pub fn find(&self, addr: Addr) -> Option<usize> {
        let slot = self.index[addr.0 as usize];
        (slot.stamp == self.epoch).then_some(slot.pos as usize)
    }

    /// The entry at journal position `pos`, as returned by
    /// [`find`](Self::find).
    #[inline]
    pub fn entry_at(&mut self, pos: usize) -> &mut SpecEntry {
        &mut self.journal[pos].1
    }

    /// True when no further entry fits: allocating one for an address the
    /// buffer does not hold would overflow.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.journal.len() >= self.capacity
    }

    /// Allocates a fresh (default) entry for `addr` and returns it. The
    /// caller must know that `addr` has no entry ([`find`](Self::find)
    /// returned `None`) and must have handled overflow
    /// ([`is_full`](Self::is_full)).
    #[inline]
    pub fn push_new(&mut self, addr: Addr) -> &mut SpecEntry {
        debug_assert!(self.find(addr).is_none(), "push_new of a present entry");
        let pos = self.journal.len();
        self.index[addr.0 as usize] = IndexSlot {
            stamp: self.epoch,
            pos: pos as u32,
        };
        self.journal.push((addr.0, SpecEntry::default()));
        self.peak = self.peak.max(self.journal.len());
        &mut self.journal[pos].1
    }

    /// Looks an entry up.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<&SpecEntry> {
        self.find(addr).map(|pos| &self.journal[pos].1)
    }

    /// True when the buffer holds a written (dirty) value for `addr`.
    #[inline]
    pub fn has_written(&self, addr: Addr) -> bool {
        self.get(addr).is_some_and(|e| e.written)
    }

    /// True when the buffer records an exposed read of `addr`.
    #[inline]
    pub fn has_exposed_read(&self, addr: Addr) -> bool {
        self.get(addr).is_some_and(|e| e.exposed_read)
    }

    /// Values written by the segment, in touch order, borrowed straight
    /// from the journal (no allocation). The journal holds each address at
    /// most once, so storing these in any order leaves the same memory —
    /// which is how both runtimes commit in place.
    pub fn written(&self) -> impl Iterator<Item = (Addr, f64)> + '_ {
        debug_assert!(
            self.journal.iter().enumerate().all(|(pos, (a, _))| {
                let slot = self.index[*a as usize];
                slot.stamp == self.epoch && slot.pos as usize == pos
            }),
            "journal addresses must be unique"
        );
        self.journal
            .iter()
            .filter(|(_, e)| e.written)
            .map(|(a, e)| (Addr(*a), e.value))
    }

    /// Values written by the segment, in address order: the sorted reference
    /// the in-place commit of [`written`](Self::written) is tested against.
    /// Iterates the journal, never the address space.
    pub fn dirty_entries(&self) -> Vec<(Addr, f64)> {
        let mut dirty: Vec<(Addr, f64)> = self.written().collect();
        dirty.sort_unstable_by_key(|(a, _)| *a);
        dirty
    }

    /// Number of dirty entries.
    pub fn dirty_count(&self) -> usize {
        self.written().count()
    }

    /// Addresses touched in the current epoch, in touch order (the engine
    /// uses this to retract its per-address dependence masks before a
    /// clear).
    pub fn touched_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.journal.iter().map(|(a, _)| Addr(*a))
    }

    /// Clears the buffer (roll-back or commit), keeping the capacity and
    /// resetting the peak statistic. O(1): the epoch bump invalidates every
    /// stale index slot at once.
    pub fn clear(&mut self) {
        self.journal.clear();
        self.peak = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: physically reset the index once every
            // ~4 billion clears so stale stamps can never alias the new
            // epoch.
            self.index.fill(IndexSlot::default());
            self.epoch = 1;
        }
    }
}

/// Per-segment private storage (the per-segment private stacks of
/// Section 5), dense and epoch-versioned like [`SpecBuffer`]: a private
/// read hits the shadow array when the segment has privately written the
/// address in the current epoch, and `clear` is an O(1) epoch bump on
/// roll-back or commit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrivateStore {
    index: Vec<IndexSlot>,
    values: Vec<f64>,
    epoch: u32,
}

impl PrivateStore {
    /// Creates an empty private store over `address_words` words.
    pub fn new(address_words: u64) -> Self {
        PrivateStore {
            index: vec![IndexSlot::default(); address_words as usize],
            values: Vec::new(),
            epoch: 1,
        }
    }

    /// Re-targets an **empty** store at another address space in place
    /// (see [`SpecBuffer::retarget`]).
    pub(crate) fn retarget(&mut self, address_words: u64) {
        debug_assert!(self.values.is_empty(), "retarget of a non-empty store");
        self.index
            .resize(address_words as usize, IndexSlot::default());
        if self.epoch == 0 {
            self.epoch = 1;
        }
    }

    /// The privately written value of `addr`, if any.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<f64> {
        let slot = self.index[addr.0 as usize];
        if slot.stamp == self.epoch {
            Some(self.values[slot.pos as usize])
        } else {
            None
        }
    }

    /// Records a private write.
    #[inline]
    pub fn insert(&mut self, addr: Addr, value: f64) {
        let i = addr.0 as usize;
        if self.index[i].stamp == self.epoch {
            self.values[self.index[i].pos as usize] = value;
        } else {
            self.index[i] = IndexSlot {
                stamp: self.epoch,
                pos: self.values.len() as u32,
            };
            self.values.push(value);
        }
    }

    /// Discards every private value (roll-back or commit).
    pub fn clear(&mut self) {
        self.values.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.index.fill(IndexSlot::default());
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Address-space size used by most tests.
    const WORDS: u64 = 64;

    /// `addr`'s entry through the one-probe path, allocated on a miss (the
    /// caller has ruled out overflow).
    fn entry(b: &mut SpecBuffer, addr: Addr) -> &mut SpecEntry {
        match b.find(addr) {
            Some(pos) => b.entry_at(pos),
            None => b.push_new(addr),
        }
    }

    fn write(b: &mut SpecBuffer, addr: Addr, value: f64, now: u64) {
        entry(b, addr).apply_write(value, now);
    }

    fn exposed_read(b: &mut SpecBuffer, addr: Addr, value: f64, now: u64) {
        entry(b, addr).apply_exposed_read(value, now);
    }

    /// True when touching `addr` would need an entry that does not fit.
    fn overflows(b: &SpecBuffer, addr: Addr) -> bool {
        b.find(addr).is_none() && b.is_full()
    }

    #[test]
    fn writes_and_exposed_reads_are_tracked_separately() {
        let mut b = SpecBuffer::new(4, WORDS);
        exposed_read(&mut b, Addr(10), 1.5, 7);
        assert!(b.has_exposed_read(Addr(10)));
        assert!(!b.has_written(Addr(10)));
        assert_eq!(b.get(Addr(10)).unwrap().value, 1.5);
        assert_eq!(b.get(Addr(10)).unwrap().first_read_time, 7);
        // A later write to the same address marks it dirty but keeps the
        // exposed-read flag (the premature read already happened).
        write(&mut b, Addr(10), 2.0, 8);
        assert!(b.has_written(Addr(10)));
        assert!(b.has_exposed_read(Addr(10)));
        assert_eq!(b.get(Addr(10)).unwrap().value, 2.0);
        assert_eq!(b.get(Addr(10)).unwrap().last_write_time, 8);
        // A covered read (after a local write) does not set the exposed flag:
        // an access simply does not apply an exposed read in that case.
        assert_eq!(b.dirty_count(), 1);
    }

    #[test]
    fn exposed_read_does_not_clobber_written_value() {
        let mut b = SpecBuffer::new(4, WORDS);
        write(&mut b, Addr(3), 9.0, 1);
        exposed_read(&mut b, Addr(3), 1.0, 2);
        assert_eq!(b.get(Addr(3)).unwrap().value, 9.0);
    }

    #[test]
    fn capacity_and_peak_tracking() {
        let mut b = SpecBuffer::new(2, WORDS);
        assert!(!overflows(&b, Addr(1)));
        write(&mut b, Addr(1), 1.0, 1);
        write(&mut b, Addr(2), 2.0, 2);
        assert!(overflows(&b, Addr(3)));
        assert!(!overflows(&b, Addr(1)), "existing entries never overflow");
        assert_eq!(b.peak(), 2);
        assert_eq!(b.len(), 2);
        let dirty = b.dirty_entries();
        assert_eq!(dirty, vec![(Addr(1), 1.0), (Addr(2), 2.0)]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.peak(), 0);
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    fn first_read_time_is_preserved_across_repeated_reads() {
        let mut b = SpecBuffer::new(4, WORDS);
        exposed_read(&mut b, Addr(5), 1.0, 10);
        exposed_read(&mut b, Addr(5), 1.0, 99);
        assert_eq!(b.get(Addr(5)).unwrap().first_read_time, 10);
    }

    #[test]
    fn clear_invalidates_stale_entries_without_touching_them() {
        let mut b = SpecBuffer::new(4, WORDS);
        write(&mut b, Addr(7), 1.0, 1);
        exposed_read(&mut b, Addr(9), 2.0, 2);
        b.clear();
        // Epoch bump: every previous entry is invisible.
        assert_eq!(b.get(Addr(7)), None);
        assert!(!b.has_written(Addr(7)));
        assert!(!b.has_exposed_read(Addr(9)));
        assert_eq!(b.dirty_count(), 0);
        assert_eq!(b.dirty_entries().len(), 0);
        // Re-touching a stale address yields a fresh default entry.
        exposed_read(&mut b, Addr(7), 5.0, 3);
        let e = b.get(Addr(7)).unwrap();
        assert!(!e.written, "stale written flag must not leak across epochs");
        assert_eq!(e.value, 5.0);
        assert_eq!(e.first_read_time, 3);
    }

    #[test]
    fn dirty_entries_are_sorted_by_address_regardless_of_touch_order() {
        let mut b = SpecBuffer::new(8, WORDS);
        write(&mut b, Addr(30), 3.0, 1);
        write(&mut b, Addr(5), 1.0, 2);
        exposed_read(&mut b, Addr(12), 9.0, 3);
        write(&mut b, Addr(20), 2.0, 4);
        let dirty = b.dirty_entries();
        assert_eq!(
            dirty,
            vec![(Addr(5), 1.0), (Addr(20), 2.0), (Addr(30), 3.0)]
        );
    }

    #[test]
    fn in_place_commit_matches_the_sorted_dirty_entries() {
        use refidem_ir::memory::{Layout, Memory};
        use refidem_ir::var::{VarKind, VarTable};
        let mut vars = VarTable::new();
        vars.declare(
            "m",
            VarKind::Array {
                dims: vec![WORDS as usize],
            },
        );
        let layout = Layout::new(&vars);
        let initial = Memory::init_with(&layout, |a| a.0 as f64 + 0.25);
        // A mixed journal in scrambled touch order: read-only entries,
        // read-then-write, a rewrite and a read after a local write.
        let mut b = SpecBuffer::new(16, WORDS);
        exposed_read(&mut b, Addr(40), 4.0, 1);
        write(&mut b, Addr(9), 1.0, 2);
        exposed_read(&mut b, Addr(3), 3.0, 3);
        write(&mut b, Addr(40), 5.0, 4);
        write(&mut b, Addr(9), 1.5, 5);
        write(&mut b, Addr(21), 2.0, 6);
        exposed_read(&mut b, Addr(21), 7.0, 7);
        write(&mut b, Addr(0), 8.0, 8);

        let mut in_place = initial.clone();
        for (addr, value) in b.written() {
            in_place.store(addr, value);
        }
        let mut sorted = initial.clone();
        for (addr, value) in b.dirty_entries() {
            sorted.store(addr, value);
        }
        assert_eq!(in_place, sorted);
        assert_eq!(b.written().count(), b.dirty_count());
        let changed: Vec<u64> = initial
            .diff(&in_place, usize::MAX)
            .iter()
            .map(|(a, _, _)| a.0)
            .collect();
        assert_eq!(
            changed,
            vec![0, 9, 21, 40],
            "read-only entries never commit"
        );
        assert_eq!(in_place.load(Addr(9)), 1.5, "the last write wins");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "journal addresses must be unique")]
    fn a_duplicate_journal_address_trips_the_debug_assertion() {
        let mut b = SpecBuffer::new(4, WORDS);
        write(&mut b, Addr(5), 1.0, 1);
        let duplicate = b.journal[0];
        b.journal.push(duplicate);
        let _ = b.written().count();
    }

    #[test]
    fn capacity_one_boundary_overflow_and_rollback() {
        // The smallest rung of the testkit's capacity ladder: one entry.
        let mut b = SpecBuffer::new(1, WORDS);
        assert!(!overflows(&b, Addr(0)), "first allocation always fits");
        write(&mut b, Addr(0), 1.0, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.peak(), 1);
        // Any *other* address overflows; the resident one never does.
        assert!(overflows(&b, Addr(1)));
        assert!(overflows(&b, Addr(63)));
        assert!(!overflows(&b, Addr(0)));
        exposed_read(&mut b, Addr(0), 2.0, 2);
        assert_eq!(
            b.len(),
            1,
            "re-touching the resident entry allocates nothing"
        );
        // Roll-back: the buffer is empty again and the *other* address can
        // now take the single slot.
        b.clear();
        assert!(!overflows(&b, Addr(1)));
        write(&mut b, Addr(1), 7.0, 3);
        assert!(overflows(&b, Addr(0)));
        assert_eq!(b.dirty_entries(), vec![(Addr(1), 7.0)]);
    }

    #[test]
    fn capacity_equal_to_address_space_never_overflows() {
        // The other boundary: capacity == total_words. Every address can be
        // resident simultaneously, so no access may ever overflow.
        let words = 16u64;
        let mut b = SpecBuffer::new(words as usize, words);
        for a in 0..words {
            assert!(!overflows(&b, Addr(a)), "address {a} must fit");
            write(&mut b, Addr(a), a as f64, a);
        }
        assert_eq!(b.len(), words as usize);
        assert_eq!(b.peak(), words as usize);
        // Full but every address is resident: still no overflow anywhere.
        for a in 0..words {
            assert!(!overflows(&b, Addr(a)));
        }
        assert_eq!(b.dirty_count(), words as usize);
        let dirty = b.dirty_entries();
        assert_eq!(dirty.len(), words as usize);
        assert!(dirty.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        b.clear();
        assert!(b.is_empty());
        assert!(!overflows(&b, Addr(0)));
    }

    /// A small deterministic generator (xorshift64*) for the model test.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    #[test]
    fn one_probe_api_matches_a_btreemap_model() {
        use std::collections::BTreeMap;
        const SMALL: u64 = 12;
        for capacity in [1, 4] {
            for seed in 1..=40u64 {
                let mut gen = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut buf = SpecBuffer::new(capacity, SMALL);
                // The model: entries by address, their touch order, and the
                // peak occupancy since the last clear.
                let mut model: BTreeMap<u64, SpecEntry> = BTreeMap::new();
                let mut order: Vec<u64> = Vec::new();
                let mut peak = 0;
                for now in 0..400u64 {
                    let addr = Addr(gen.below(SMALL));
                    let value = gen.below(1000) as f64;
                    let op = gen.below(10);
                    if op == 0 {
                        buf.clear();
                        model.clear();
                        order.clear();
                        peak = 0;
                    } else {
                        let write = op % 2 == 0;
                        let present = model.contains_key(&addr.0);
                        let overflow = !present && model.len() >= capacity;
                        assert_eq!(buf.find(addr).is_some(), present);
                        assert_eq!(overflows(&buf, addr), overflow);
                        assert_eq!(buf.is_full(), model.len() >= capacity);
                        if !overflow {
                            let slot = entry(&mut buf, addr);
                            if write {
                                slot.apply_write(value, now);
                            } else {
                                slot.apply_exposed_read(value, now);
                            }
                            if !present {
                                order.push(addr.0);
                            }
                            let e = model.entry(addr.0).or_default();
                            if write {
                                e.value = value;
                                e.written = true;
                                e.last_write_time = now;
                            } else {
                                if !e.exposed_read {
                                    e.exposed_read = true;
                                    e.first_read_time = now;
                                }
                                if !e.written {
                                    e.value = value;
                                }
                            }
                            peak = peak.max(model.len());
                        }
                    }
                    assert_eq!(buf.len(), model.len());
                    assert_eq!(buf.peak(), peak);
                    for a in 0..SMALL {
                        let e = model.get(&a);
                        assert_eq!(buf.get(Addr(a)), e);
                        assert_eq!(buf.has_written(Addr(a)), e.is_some_and(|e| e.written));
                        assert_eq!(
                            buf.has_exposed_read(Addr(a)),
                            e.is_some_and(|e| e.exposed_read)
                        );
                    }
                    let written: Vec<(Addr, f64)> = order
                        .iter()
                        .filter(|a| model[a].written)
                        .map(|a| (Addr(*a), model[a].value))
                        .collect();
                    assert_eq!(buf.written().collect::<Vec<_>>(), written);
                    let touched: Vec<Addr> = order.iter().map(|a| Addr(*a)).collect();
                    assert_eq!(buf.touched_addrs().collect::<Vec<_>>(), touched);
                }
            }
        }
    }

    #[test]
    fn private_store_is_epoch_versioned() {
        let mut p = PrivateStore::new(WORDS);
        assert_eq!(p.get(Addr(4)), None);
        p.insert(Addr(4), 2.5);
        assert_eq!(p.get(Addr(4)), Some(2.5));
        p.insert(Addr(4), 3.5);
        assert_eq!(p.get(Addr(4)), Some(3.5));
        p.clear();
        assert_eq!(p.get(Addr(4)), None, "cleared values are invisible");
        p.insert(Addr(4), 1.0);
        assert_eq!(p.get(Addr(4)), Some(1.0));
    }

    #[test]
    fn epoch_wraparound_resets_stamps_safely() {
        let mut b = SpecBuffer::new(2, 4);
        // Force the epoch counter all the way around.
        write(&mut b, Addr(0), 1.0, 1);
        b.epoch = u32::MAX;
        b.journal.clear();
        b.peak = 0;
        // Entry live in the last pre-wrap epoch.
        b.index[1] = IndexSlot {
            stamp: u32::MAX,
            pos: 0,
        };
        b.journal.push((
            1,
            SpecEntry {
                written: true,
                ..SpecEntry::default()
            },
        ));
        assert!(b.has_written(Addr(1)));
        b.clear();
        assert_eq!(b.epoch, 1, "wrapped past 0 back to 1");
        assert!(!b.has_written(Addr(1)), "pre-wrap entries are invisible");
        assert!(
            !b.has_written(Addr(0)),
            "stamps were physically reset, no aliasing with earlier epochs"
        );
    }
}
