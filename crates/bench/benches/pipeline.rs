//! Pipeline benches: the expensive end-to-end operations — milking a
//! wall through the MITM proxy, crawling a profile, and building a
//! world.

mod fixture;

use criterion::{criterion_group, criterion_main, Criterion};
use fixture::fixture;
use iiscope_core::{World, WorldConfig};
use iiscope_monitor::UiFuzzer;
use iiscope_types::Country;
use std::hint::black_box;

fn bench_milk(c: &mut Criterion) {
    let fx = fixture();
    let app = &fx.world().affiliate_apps[0];
    let fuzzer = UiFuzzer::default();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("milk_one_affiliate_app", |b| {
        b.iter(|| black_box(fx.world().infra.milk(app, Country::Us, &fuzzer).unwrap()))
    });
    g.finish();
}

fn bench_crawl(c: &mut Criterion) {
    let fx = fixture();
    let pkg = fx.world().plan.baseline[0].package.as_str();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("crawl_one_profile", |b| {
        let mut crawler = fx.world().crawler();
        b.iter(|| black_box(crawler.profile(pkg, fx.world().study_start()).unwrap()))
    });
    g.bench_function("crawl_one_apk", |b| {
        let mut crawler = fx.world().crawler();
        b.iter(|| black_box(crawler.apk(pkg).unwrap()))
    });
    g.finish();
}

fn bench_world_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("build_small_world", |b| {
        b.iter(|| black_box(World::build(WorldConfig::small(9)).unwrap()))
    });
    g.finish();
}

/// Reduced wild-study config for the sequential/parallel comparison.
/// Each iteration builds a fresh world (campaign escrow is consumed by
/// a run, so the study is not re-runnable on the same world); compare
/// against `build_small_world` to subtract the build cost.
fn wild_cfg(parallelism: usize) -> WorldConfig {
    let mut cfg = WorldConfig::small(9);
    cfg.monitoring_days = 8;
    cfg.crawl_cadence_days = 4;
    cfg.advertised_apps = 25;
    cfg.baseline_apps = 10;
    cfg.parallelism = parallelism;
    cfg
}

fn bench_wild_study(c: &mut Criterion) {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("wild_study_sequential", |b| {
        b.iter(|| {
            let world = World::build(wild_cfg(1)).unwrap();
            black_box(world.run_wild_study().unwrap())
        })
    });
    g.bench_function("wild_study_parallel", |b| {
        b.iter(|| {
            let world = World::build(wild_cfg(workers)).unwrap();
            black_box(world.run_wild_study().unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_milk,
    bench_crawl,
    bench_world_build,
    bench_wild_study
);
criterion_main!(benches);
