//! Append-only rows in fixed-capacity chunks: the one storage rule
//! under the profile log and the resident rows of every spillable row
//! log. The install ledger keeps the same rule in a store of its own,
//! whose full chunks can be sealed to disk.
//!
//! A full chunk holds [`Chunked::ROWS`] rows, about 4 KiB rounded up to
//! a power of two, so an index splits with a shift and a mask. The
//! first chunk grows geometrically like any `Vec`, and its doubling
//! lands exactly on `ROWS`; every later chunk is allocated at exactly
//! `ROWS` and never reallocated. A store therefore never copies a row
//! once written, and its slack is at most one chunk.

use std::mem::size_of;
use std::ops::{Index, IndexMut};

/// An append-only sequence of `T` in fixed-capacity chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunked<T> {
    /// Full chunks of `ROWS`, then at most one partial chunk.
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Chunked<T> {
        Chunked { chunks: Vec::new() }
    }
}

impl<T> Chunked<T> {
    /// Rows in a full chunk: `4096 / size_of::<T>()` rounded up to a
    /// power of two, at least 1 (a zero-sized `T` does not compile).
    pub const ROWS: usize = (4096 / size_of::<T>()).next_power_of_two();

    /// Appends `row`.
    pub fn push(&mut self, row: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < Self::ROWS => last.push(row),
            last => {
                let cap = if last.is_some() { Self::ROWS } else { 0 };
                let mut chunk = Vec::with_capacity(cap);
                chunk.push(row);
                self.chunks.push(chunk);
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * Self::ROWS + last.len())
    }

    /// True when no row was pushed.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Every row in push order (exact-size, double-ended).
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            store: self,
            at: 0..self.len(),
        }
    }

    /// Every row in push order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.chunks.iter_mut().flatten()
    }

    /// Drops the slack of the last chunk and of the chunk headers, for a
    /// store that is done growing. Copies at most one chunk.
    pub fn shrink_to_fit(&mut self) {
        if let Some(last) = self.chunks.last_mut() {
            last.shrink_to_fit();
        }
        self.chunks.shrink_to_fit();
    }

    /// Heap bytes: every chunk at its capacity, plus the chunk headers.
    pub fn heap_bytes(&self) -> usize {
        let rows: usize = self.chunks.iter().map(Vec::capacity).sum();
        rows * size_of::<T>() + self.chunks.capacity() * size_of::<Vec<T>>()
    }
}

/// Panics if the index is not below `len()`.
impl<T> Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        // `ROWS` is a power of two, so these are a shift and a mask.
        &self.chunks[i / Self::ROWS][i % Self::ROWS]
    }
}

impl<T> IndexMut<usize> for Chunked<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / Self::ROWS][i % Self::ROWS]
    }
}

/// The rows of a [`Chunked`] in push order (see [`Chunked::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    store: &'a Chunked<T>,
    at: std::ops::Range<usize>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.at.next().map(|i| &self.store[i])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl<T> DoubleEndedIterator for Iter<'_, T> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.at.next_back().map(|i| &self.store[i])
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 16-byte row, the install ledger's size: 256 rows a chunk.
    type Row = (u64, u64);

    fn filled(n: usize) -> Chunked<Row> {
        let mut c = Chunked::default();
        for i in 0..n as u64 {
            c.push((i, !i));
        }
        c
    }

    #[test]
    fn rows_per_chunk_follow_the_row_size() {
        assert_eq!(Chunked::<Row>::ROWS, 256);
        assert_eq!(Chunked::<u8>::ROWS, 4096);
        assert_eq!(Chunked::<[u8; 56]>::ROWS, 128);
        assert_eq!(Chunked::<[u8; 80]>::ROWS, 64);
        assert_eq!(Chunked::<[u8; 1200]>::ROWS, 4);
        assert_eq!(Chunked::<[u8; 3000]>::ROWS, 1);
        assert_eq!(Chunked::<[u8; 5000]>::ROWS, 1);
    }

    #[test]
    fn the_first_chunk_grows_up_to_the_chunk_size() {
        let rows = Chunked::<Row>::ROWS;
        let mut c = Chunked::default();
        assert_eq!(c.heap_bytes(), 0);
        let mut caps = Vec::new();
        for i in 0..rows as u64 {
            c.push((i, i));
            assert_eq!(c.chunks.len(), 1);
            let cap = c.chunks[0].capacity();
            if caps.last() != Some(&cap) {
                caps.push(cap);
            }
        }
        assert!(
            caps.len() > 2,
            "the first chunk grows geometrically: {caps:?}"
        );
        assert!(caps.windows(2).all(|w| w[1] == 2 * w[0]), "{caps:?}");
        assert_eq!(caps.last(), Some(&rows), "doubling lands on the chunk size");
    }

    #[test]
    fn later_chunks_are_allocated_whole_and_never_reallocated() {
        let rows = Chunked::<Row>::ROWS;
        let mut c = filled(rows + 1);
        let second = c.chunks[1].as_ptr();
        assert_eq!(c.chunks[1].capacity(), rows);
        for i in 0..(2 * rows + 6) as u64 {
            c.push((i, i));
        }
        // Three full chunks and a partial one.
        assert_eq!(c.len(), 3 * rows + 7);
        assert_eq!(c.chunks.len(), 4);
        assert!(c.chunks[1..].iter().all(|k| k.capacity() == rows));
        assert_eq!(c.chunks[1].as_ptr(), second, "a full chunk never moves");
    }

    #[test]
    fn shrink_to_fit_trims_only_the_last_chunk() {
        let rows = Chunked::<Row>::ROWS;
        let mut c = filled(2 * rows + 3);
        let first = c.chunks[0].as_ptr();
        c.shrink_to_fit();
        assert_eq!(c.chunks[0].as_ptr(), first, "full chunks are not copied");
        assert_eq!(c.chunks[2].capacity(), 3);
        let headers = 3 * size_of::<Vec<Row>>();
        assert_eq!(c.heap_bytes(), c.len() * size_of::<Row>() + headers);
        assert!(c.iter().map(|r| r.0).eq(0..(2 * rows + 3) as u64));
    }

    #[test]
    #[should_panic]
    fn indexing_past_len_panics() {
        let c = filled(Chunked::<Row>::ROWS + 3);
        let _ = c[c.len()];
    }

    #[test]
    fn next_and_next_back_interleave() {
        let n = 2 * Chunked::<Row>::ROWS + 5;
        let c = filled(n);
        let mut it = c.iter();
        let (mut front, mut back) = (0, n);
        let mut turn = 0;
        while it.len() > 0 {
            assert_eq!(it.len(), back - front);
            if turn % 3 == 0 {
                back -= 1;
                assert_eq!(it.next_back().unwrap().0, back as u64);
            } else {
                assert_eq!(it.next().unwrap().0, front as u64);
                front += 1;
            }
            turn += 1;
        }
        assert_eq!(front, back);
        assert!(it.next().is_none() && it.next_back().is_none());
    }

    #[test]
    fn iter_mut_edits_in_place() {
        let n = Chunked::<Row>::ROWS + 9;
        let mut c = filled(n);
        for r in c.iter_mut().filter(|r| r.0 % 2 == 0) {
            r.1 = 7;
        }
        c[3].1 = 9;
        for i in 0..n {
            let want = match i {
                3 => 9,
                i if i % 2 == 0 => 7,
                i => !(i as u64),
            };
            assert_eq!(c[i].1, want, "row {i}");
        }
    }

    proptest! {
        #[test]
        fn matches_a_vec_oracle(
            n in 0usize..3 * 256,
            edits in prop::collection::vec((0usize..3 * 256, 0u64..1_000), 0..16),
        ) {
            let mut c = Chunked::<Row>::default();
            let mut oracle = Vec::new();
            for i in 0..n as u64 {
                c.push((i, i * 3));
                oracle.push((i, i * 3));
            }
            for (at, v) in edits {
                if at < n {
                    c[at].1 = v;
                    oracle[at].1 = v;
                }
            }
            prop_assert_eq!(c.len(), oracle.len());
            prop_assert_eq!(c.is_empty(), oracle.is_empty());
            for (i, row) in oracle.iter().enumerate() {
                prop_assert_eq!(&c[i], row);
            }
            prop_assert!(c.iter().eq(oracle.iter()));
            prop_assert!(c.iter().rev().eq(oracle.iter().rev()));
            prop_assert_eq!(c.iter().len(), n);

            let row = size_of::<Row>();
            let headers = c.chunks.capacity() * size_of::<Vec<Row>>();
            prop_assert!(c.heap_bytes() >= n * row);
            prop_assert!(c.heap_bytes() <= (n + Chunked::<Row>::ROWS) * row + headers);
        }
    }
}
