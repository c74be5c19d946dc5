//! The one counting allocator of the footprint tests.
//!
//! A test binary installs [`Counting`] as its global allocator:
//!
//! ```
//! use iiscope_bench::alloc::{counted, Counting};
//!
//! #[global_allocator]
//! static GLOBAL: Counting = Counting;
//!
//! fn main() {
//!     let (v, allocs, live) = counted(|| vec![7u8; 64]);
//!     assert_eq!((v.len(), allocs, live), (64, 1, 64));
//! }
//! ```
//!
//! Every call goes to the system allocator unchanged; the books only
//! observe sizes. Two sets of books are kept:
//!
//! - process-wide live bytes ([`live`]) and their high-water mark
//!   ([`peak_growth`]), which count every thread's allocations, so the
//!   tests that read them take turns;
//! - per-thread books that count only while their thread asks
//!   ([`counted`]), so a concurrently running test never reaches them.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest [`LIVE`] seen since [`peak_growth`] last started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// One thread's allocation books.
struct Books {
    /// Whether this thread's allocations count.
    on: Cell<bool>,
    /// Allocations (reallocations included) while counting.
    allocs: Cell<usize>,
    /// Net bytes allocated while counting.
    live: Cell<isize>,
}

thread_local! {
    static BOOKS: Books = const {
        Books {
            on: Cell::new(false),
            allocs: Cell::new(0),
            live: Cell::new(0),
        }
    };
}

/// Books `bytes` (and an allocation, if `alloc`) to the process and,
/// if it is counting, to this thread.
fn book(alloc: bool, bytes: isize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
    let _ = BOOKS.try_with(|b| {
        if b.on.get() {
            b.allocs.set(b.allocs.get() + usize::from(alloc));
            b.live.set(b.live.get() + bytes);
        }
    });
}

/// The system allocator, booking every allocation's size.
pub struct Counting;

// SAFETY: every call forwards to `System` unchanged; the books only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            book(true, layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            book(true, layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        book(false, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            book(true, new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Bytes currently allocated through [`Counting`], by every thread.
pub fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Runs `f` and returns how far the process's live bytes rose above
/// where they started. Other threads' allocations count too, so the
/// caller keeps other tests from allocating meanwhile.
pub fn peak_growth(f: impl FnOnce()) -> isize {
    let before = live();
    PEAK.store(before, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - before
}

/// Runs `f` with this thread's allocations counted; returns its result,
/// the allocations it made and the live bytes it left behind.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    BOOKS.with(|b| {
        b.allocs.set(0);
        b.live.set(0);
        b.on.set(true);
    });
    let out = f();
    BOOKS.with(|b| {
        b.on.set(false);
        (out, b.allocs.get(), b.live.get())
    })
}
