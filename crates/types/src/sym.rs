//! Deterministic string interning and the columnar containers built
//! on top of it.
//!
//! The analyses of §4–§5 are joins over half a dozen datasets keyed by
//! package name, developer identity and offer description. Owned
//! `String` keys force every join through an allocation and an
//! O(len · log n) comparison chain; interning replaces the key with a
//! dense [`Sym`] (`u32`) so the join paths become array indexing and
//! bitset probes.
//!
//! Determinism contract: a symbol's numeric value is its **first
//! insertion rank** — symbol 0 is the first distinct string ever
//! interned, symbol 1 the second, and so on. The internal hash table
//! is only a *lookup accelerator* (FNV-1a over the bytes, open
//! addressing); it decides how fast a string is found, never which
//! number it gets. Two runs that intern the same strings in the same
//! order therefore agree on every symbol, which is what lets the
//! seeded simulation carry `Sym`s end to end and still print a
//! byte-identical report.

use crate::fnv::fnv64;
use std::fmt;

/// An interned string: a dense index into an [`Interner`].
///
/// `Sym` is `Copy`, 4 bytes, and orders by insertion rank (not
/// lexicographically) — resolve through the interner and sort the
/// strings wherever output order demands lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The shard this symbol belongs to — convenience for
    /// [`shard_of`].
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        shard_of(self, shards)
    }
}

/// Deterministic shard assignment for a symbol.
///
/// A **pure function** of `(sym, shards)`: no interner state, no RNG,
/// no global configuration. The sharded world loop relies on this so
/// that the same package lands on the same shard in every run, every
/// process, and every worker count — shard membership is part of the
/// deterministic plan, not of the execution schedule.
///
/// Symbols are dense insertion ranks, so a plain `sym % shards` would
/// stripe correlated neighbours (apps interned back-to-back) across
/// shards in lockstep. A finalizer-style avalanche mix (the murmur3
/// fmix32 constants) decorrelates rank from shard first.
#[inline]
pub fn shard_of(sym: Sym, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = sym.0.wrapping_add(0x9e37_79b9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x85eb_ca6b);
    x ^= x >> 13;
    x = x.wrapping_mul(0xc2b2_ae35);
    x ^= x >> 16;
    x as usize % shards
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Arena-backed deterministic string interner.
///
/// All interned bytes live in one contiguous slab; per-symbol
/// `(offset, len)` pairs live in a parallel offset table, so resolving
/// a [`Sym`] is two array reads and no pointer chasing. The dedup
/// index is a private open-addressing table (FNV-1a, linear probing)
/// that never leaks into symbol numbering — see the module docs for
/// the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Every interned string, concatenated.
    slab: String,
    /// `(byte offset, byte length)` of each symbol, by insertion rank.
    spans: Vec<(u32, u32)>,
    /// Open-addressing dedup index: `slot -> sym index + 1` (0 =
    /// empty). Rebuilt on growth; capacity is always a power of two.
    index: Vec<u32>,
}

/// Content equality: same strings in the same insertion order. The
/// dedup index is deliberately excluded — its capacity depends on the
/// construction path (`new` vs `with_capacity`), not on content.
impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.slab == other.slab && self.spans == other.spans
    }
}

impl Eq for Interner {}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// An empty interner with room for `strings` symbols of about
    /// `avg_len` bytes each before the first reallocation.
    pub fn with_capacity(strings: usize, avg_len: usize) -> Interner {
        let mut it = Interner {
            slab: String::with_capacity(strings * avg_len),
            spans: Vec::with_capacity(strings),
            index: Vec::new(),
        };
        it.grow_index((strings * 2).next_power_of_two().max(16));
        it
    }

    /// Interns `s`, returning its symbol. Existing strings return
    /// their original symbol; new strings get the next insertion rank.
    pub fn intern(&mut self, s: &str) -> Sym {
        if self.spans.len() * 2 >= self.index.len() {
            self.grow_index((self.index.len() * 2).max(16));
        }
        let mask = self.index.len() - 1;
        let mut slot = (fnv64(s.as_bytes()) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => break,
                stored => {
                    let sym = Sym(stored - 1);
                    if self.resolve(sym) == s {
                        return sym;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
        let sym = Sym(u32::try_from(self.spans.len()).expect("symbol space overflow"));
        let offset = u32::try_from(self.slab.len()).expect("slab overflow");
        self.slab.push_str(s);
        self.spans.push((offset, s.len() as u32));
        self.index[slot] = sym.0 + 1;
        sym
    }

    /// Looks up `s` without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = (fnv64(s.as_bytes()) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return None,
                stored => {
                    let sym = Sym(stored - 1);
                    if self.resolve(sym) == s {
                        return Some(sym);
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// If `sym` did not come from this interner (or a clone sharing
    /// its history).
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        let (off, len) = self.spans[sym.index()];
        &self.slab[off as usize..(off + len) as usize]
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total interned bytes (the slab's length).
    pub fn slab_bytes(&self) -> usize {
        self.slab.len()
    }

    /// Heap bytes behind the table: the slab, the offset table and the
    /// dedup index, at their capacities.
    pub fn heap_bytes(&self) -> usize {
        self.slab.capacity()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }

    /// All symbols in insertion order, with their strings.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> + '_ {
        (0..self.spans.len() as u32).map(move |i| (Sym(i), self.resolve(Sym(i))))
    }

    fn grow_index(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.index = vec![0; capacity];
        let mask = capacity - 1;
        for i in 0..self.spans.len() as u32 {
            let s = self.resolve(Sym(i));
            let mut slot = (fnv64(s.as_bytes()) as usize) & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = i + 1;
        }
    }
}

/// A growable bitset over the symbol space — the columnar replacement
/// for `BTreeSet<String>` dedup indices.
///
/// Membership is one word probe; `insert` reports whether the symbol
/// was new (single-probe insert-or-check, no `contains`-then-`insert`
/// double lookup). Iteration yields symbols in ascending numeric
/// (insertion-rank) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymSet {
    words: Vec<u64>,
    len: usize,
}

impl SymSet {
    /// An empty set.
    pub fn new() -> SymSet {
        SymSet::default()
    }

    /// Inserts `sym`; returns true when it was not present.
    pub fn insert(&mut self, sym: Sym) -> bool {
        let (word, bit) = (sym.index() / 64, sym.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, sym: Sym) -> bool {
        self.words
            .get(sym.index() / 64)
            .is_some_and(|w| w & (1 << (sym.index() % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no symbol is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-bit words backing the set — the memory shape.
    ///
    /// Growth is driven by the highest symbol inserted, not by the
    /// member count: `word_count() == highest_index / 64 + 1`.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Members in ascending symbol order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(Sym((wi * 64) as u32 + bit))
            })
        })
    }
}

impl FromIterator<Sym> for SymSet {
    fn from_iter<I: IntoIterator<Item = Sym>>(iter: I) -> SymSet {
        let mut set = SymSet::new();
        for sym in iter {
            set.insert(sym);
        }
        set
    }
}

/// A dense map over the symbol space — the columnar replacement for
/// `BTreeMap<String, V>`: one `Vec` slot per symbol, no hashing, no
/// tree walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for SymMap<V> {
    fn default() -> SymMap<V> {
        SymMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> SymMap<V> {
    /// An empty map.
    pub fn new() -> SymMap<V> {
        SymMap::default()
    }

    /// The value for `sym`, if set.
    #[inline]
    pub fn get(&self, sym: Sym) -> Option<&V> {
        self.slots.get(sym.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the value for `sym`, if set.
    #[inline]
    pub fn get_mut(&mut self, sym: Sym) -> Option<&mut V> {
        self.slots.get_mut(sym.index()).and_then(Option::as_mut)
    }

    /// Single-probe entry: the slot for `sym`, inserting
    /// `default()` when vacant.
    pub fn get_or_insert_with(&mut self, sym: Sym, default: impl FnOnce() -> V) -> &mut V {
        if sym.index() >= self.slots.len() {
            self.slots.resize_with(sym.index() + 1, || None);
        }
        let slot = &mut self.slots[sym.index()];
        if slot.is_none() {
            *slot = Some(default());
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Sets the value for `sym`, returning the previous one.
    pub fn insert(&mut self, sym: Sym, value: V) -> Option<V> {
        if sym.index() >= self.slots.len() {
            self.slots.resize_with(sym.index() + 1, || None);
        }
        let prev = self.slots[sym.index()].replace(value);
        self.len += usize::from(prev.is_none());
        prev
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots backing the map — the memory shape.
    ///
    /// Dense maps grow to the highest symbol inserted:
    /// `slot_count() == highest_index + 1` regardless of occupancy.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes behind the slots, at their capacity (a value's own
    /// heap is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<V>>()
    }

    /// Occupied `(sym, value)` pairs in ascending symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (Sym(i as u32), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbering_is_first_insertion_order() {
        let mut it = Interner::new();
        assert_eq!(it.intern("b"), Sym(0));
        assert_eq!(it.intern("a"), Sym(1));
        assert_eq!(it.intern("c"), Sym(2));
        // Re-interning changes nothing.
        assert_eq!(it.intern("a"), Sym(1));
        assert_eq!(it.intern("b"), Sym(0));
        assert_eq!(it.len(), 3);
        assert_eq!(it.resolve(Sym(0)), "b");
        assert_eq!(it.resolve(Sym(2)), "c");
        assert_eq!(it.get("c"), Some(Sym(2)));
        assert_eq!(it.get("zzz"), None);
    }

    #[test]
    fn survives_index_growth() {
        let mut it = Interner::new();
        let syms: Vec<Sym> = (0..5_000).map(|i| it.intern(&format!("pkg.{i}"))).collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(sym.index(), i);
            assert_eq!(it.resolve(*sym), format!("pkg.{i}"));
            assert_eq!(it.get(&format!("pkg.{i}")), Some(*sym));
        }
        assert_eq!(it.len(), 5_000);
        assert_eq!(it.slab_bytes(), it.iter().map(|(_, s)| s.len()).sum());
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut it = Interner::new();
        let empty = it.intern("");
        assert_eq!(it.intern(""), empty);
        assert_eq!(it.resolve(empty), "");
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn clone_extends_the_shared_history() {
        let mut base = Interner::new();
        let a = base.intern("com.a");
        let mut fork = base.clone();
        assert_eq!(fork.intern("com.a"), a);
        let b = fork.intern("com.b");
        assert_eq!(b, Sym(1));
        // The original is untouched.
        assert_eq!(base.len(), 1);
    }

    #[test]
    fn symset_single_probe_insert() {
        let mut set = SymSet::new();
        assert!(set.insert(Sym(3)));
        assert!(!set.insert(Sym(3)));
        assert!(set.insert(Sym(130)));
        assert!(set.contains(Sym(3)));
        assert!(!set.contains(Sym(4)));
        assert!(!set.contains(Sym(100_000)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![Sym(3), Sym(130)]);
    }

    #[test]
    fn symset_bitset_growth_at_a_million_syms() {
        let mut set = SymSet::new();
        // Sparse membership across a 1M+ symbol space: the bitset must
        // grow to cover the highest index, one u64 per 64 symbols.
        let top = Sym(1 << 20); // 1_048_576
        assert!(set.insert(top));
        assert_eq!(set.word_count(), top.index() / 64 + 1);
        assert_eq!(set.len(), 1);
        // Dense fill of every 97th symbol up to 1M: len tracks the
        // member count, word_count tracks only the highest index.
        for i in (0..=1_000_000u32).step_by(97) {
            set.insert(Sym(i));
        }
        assert_eq!(set.len(), 1 + 1_000_000 / 97 + 1);
        assert_eq!(set.word_count(), top.index() / 64 + 1);
        assert!(set.contains(Sym(97 * 500)));
        assert!(!set.contains(Sym(97 * 500 + 1)));
        // Iteration order stays ascending through the full range.
        let members: Vec<Sym> = set.iter().collect();
        assert_eq!(members.len(), set.len());
        assert!(members.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*members.last().unwrap(), top);
    }

    #[test]
    fn symmap_dense_shape_at_a_million_syms() {
        let mut map: SymMap<u32> = SymMap::new();
        let top = Sym(1_250_000);
        map.insert(top, 7);
        // One slot per symbol index up to the highest inserted —
        // occupancy does not shrink the dense shape.
        assert_eq!(map.slot_count(), top.index() + 1);
        assert_eq!(map.len(), 1);
        for i in (0..1_250_000u32).step_by(1_000) {
            map.insert(Sym(i), i);
        }
        assert_eq!(map.len(), 1 + 1_250_000 / 1_000);
        assert_eq!(map.slot_count(), top.index() + 1);
        assert_eq!(map.get(Sym(500_000)), Some(&500_000));
        assert!(map.get(Sym(500_001)).is_none());
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        // Single shard: everything lands on shard 0.
        assert_eq!(shard_of(Sym(0), 1), 0);
        assert_eq!(shard_of(Sym(u32::MAX), 1), 0);
        assert_eq!(shard_of(Sym(42), 0), 0);
        // Every shard receives work for a dense symbol range — the
        // avalanche mix must not collapse insertion ranks onto a few
        // shards.
        for shards in [2usize, 3, 8, 17] {
            let mut counts = vec![0usize; shards];
            for i in 0..10_000u32 {
                let s = shard_of(Sym(i), shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(min > 0, "empty shard at shards={shards}");
            // Loose balance bound: no shard more than 2x another.
            assert!(max < min * 2, "skewed shards={shards}: {counts:?}");
        }
    }

    mod shard_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Shard assignment is a pure function of `(Sym, shard_count)`:
            /// the same pair always yields the same shard, in range, no
            /// matter what other assignments were computed in between or
            /// which interner minted the symbol.
            #[test]
            fn shard_assignment_is_pure(raw in any::<u32>(),
                                        shards in 1usize..64,
                                        noise in prop::collection::vec(any::<u32>(), 0..32)) {
                let first = shard_of(Sym(raw), shards);
                prop_assert!(first < shards);
                // Interleave unrelated assignments — no hidden state may leak.
                for n in noise {
                    let _ = shard_of(Sym(n), shards);
                }
                prop_assert_eq!(first, shard_of(Sym(raw), shards));
                // Symbols with equal ranks from different interners agree:
                // the rank (not the string or the interner) decides.
                let mut a = Interner::new();
                let mut b = Interner::new();
                let sa = a.intern("x");
                b.intern("unrelated");
                let sb = b.intern("x");
                prop_assert_eq!(shard_of(sa, shards), shard_of(Sym(0), shards));
                prop_assert_eq!(shard_of(sb, shards), shard_of(Sym(1), shards));
            }
        }
    }

    #[test]
    fn symmap_dense_ops() {
        let mut map: SymMap<Vec<u32>> = SymMap::new();
        assert!(map.get(Sym(2)).is_none());
        map.get_or_insert_with(Sym(2), Vec::new).push(7);
        map.get_or_insert_with(Sym(2), Vec::new).push(8);
        assert_eq!(map.get(Sym(2)), Some(&vec![7, 8]));
        assert_eq!(map.len(), 1);
        map.insert(Sym(0), vec![1]);
        assert_eq!(
            map.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            vec![Sym(0), Sym(2)]
        );
    }
}
