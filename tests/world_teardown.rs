//! Dropping a world frees it.
//!
//! A counting global allocator records live heap bytes before a small
//! world is built and after it has run both studies and everything it
//! returned has been dropped. Services the network owns must not keep
//! the network alive through a handle of their own: such a cycle keeps
//! every world a process builds resident until exit. A world under a
//! memory budget, whose dataset spills and whose ledgers seal their
//! install rows to disk, must return its heap as well.

mod common;

use common::TempDir;
use iiscope::{Run, RunOptions};
use iiscope_bench::alloc::{self, Counting};
use std::path::Path;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes dropped worlds may leave behind: lazily initialised
/// process state. A world holds megabytes, so any leak of one shows.
const SLACK: isize = 16 * 1024;

fn build_run_drop(seed: u64, spill_dir: Option<&Path>) {
    let mut cfg = common::reduced(seed, 2);
    if let Some(dir) = spill_dir {
        cfg.memory_budget = Some(32 * 1024);
        cfg.spill_dir = Some(dir.to_path_buf());
    }
    let run = Run::new(cfg).expect("world builds");
    let out = run.study(RunOptions::default()).expect("studies");
    let wild = &out.artifacts;
    assert!(wild.tagged_installs > 0);
    if spill_dir.is_some() {
        assert!(wild.dataset.spill_stats().spilled_segments > 0);
        assert!(out.world().store.install_ledger_footprint().spilled_chunks > 0);
    }
    drop(out);
}

#[test]
fn a_dropped_world_returns_its_heap() {
    let start = alloc::live();
    build_run_drop(42, None);
    let after_first = alloc::live() - start;
    build_run_drop(7, None);
    let after_second = alloc::live() - start;
    // The scratch dir's path is allocated before the count and freed
    // after it.
    let spill = TempDir::new("teardown");
    let before_budgeted = alloc::live();
    build_run_drop(42, Some(&spill.0));
    let after_budgeted = alloc::live() - before_budgeted;
    eprintln!(
        "live bytes left: {after_first} after one world, {after_second} after two, \
         {after_budgeted} after a budgeted one"
    );
    assert!(
        after_first <= SLACK && after_second <= SLACK,
        "dropped worlds left {after_first} B, then {after_second} B live (limit {SLACK})"
    );
    assert!(
        after_budgeted <= SLACK,
        "a dropped budgeted world left {after_budgeted} B live (limit {SLACK})"
    );
}
