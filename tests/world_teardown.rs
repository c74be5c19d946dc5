//! Dropping a world frees it.
//!
//! A counting global allocator records live heap bytes before a small
//! world is built and after it has run both studies and everything it
//! returned has been dropped. Services the network owns must not keep
//! the network alive through a handle of their own: such a cycle keeps
//! every world a process builds resident until exit.

mod common;

use iiscope::World;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping a running total of live bytes.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes dropped worlds may leave behind: lazily initialised
/// process state. A world holds megabytes, so any leak of one shows.
const SLACK: isize = 16 * 1024;

fn build_run_drop(seed: u64) {
    let world = World::build(common::reduced(seed, 2)).expect("world builds");
    let honey = world
        .run_honey_study(world.study_start())
        .expect("honey study");
    let wild = world.run_wild_study().expect("wild study");
    assert!(wild.tagged_installs > 0);
    drop((honey, wild, world));
}

#[test]
fn a_dropped_world_returns_its_heap() {
    let start = LIVE.load(Ordering::SeqCst);
    build_run_drop(42);
    let after_first = LIVE.load(Ordering::SeqCst) - start;
    build_run_drop(7);
    let after_second = LIVE.load(Ordering::SeqCst) - start;
    eprintln!("live bytes left: {after_first} after one world, {after_second} after two");
    assert!(
        after_first <= SLACK && after_second <= SLACK,
        "dropped worlds left {after_first} B, then {after_second} B live (limit {SLACK})"
    );
}
