//! One bench per paper table and figure: each measures regenerating
//! that artifact from the (pre-run) study data. The bench names mirror
//! the paper's numbering, so `cargo bench table5` re-times exactly the
//! Table 5 computation.

mod fixture;

use criterion::{criterion_group, criterion_main, Criterion};
use fixture::fixture;
use iiscope_core::experiments::{
    DetectorEval, Disclosure, Figure4, Figure5, Figure6, Monetization, Section3, Section5, Table1,
    Table2, Table3, Table4, Table5, Table6, Table7, Table8,
};
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("tables");
    g.sample_size(20);
    g.bench_function("table1_vetting_probe", |b| {
        b.iter(|| black_box(Table1::run(fx.world())))
    });
    g.bench_function("table2_integration_matrix", |b| {
        b.iter(|| black_box(Table2::run(fx.world(), fx.world().cfg.milk_countries[0]).unwrap()))
    });
    g.bench_function("table3_offer_types_payouts", |b| {
        b.iter(|| black_box(Table3::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("table4_per_iip_summary", |b| {
        b.iter(|| black_box(Table4::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("table5_install_increases", |b| {
        b.iter(|| black_box(Table5::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("table6_chart_appearances", |b| {
        b.iter(|| black_box(Table6::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("table7_funding", |b| {
        b.iter(|| black_box(Table7::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("table8_funded_app_offers", |b| {
        b.iter(|| black_box(Table8::run(fx.world(), &fx.artifacts)))
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("figures");
    g.sample_size(20);
    g.bench_function("figure4_baseline_histogram", |b| {
        b.iter(|| black_box(Figure4::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("figure5_case_studies", |b| {
        b.iter(|| black_box(Figure5::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("figure6_ad_library_cdfs", |b| {
        b.iter(|| black_box(Figure6::run(fx.world(), &fx.artifacts)))
    });
    g.finish();
}

fn bench_sections(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("sections");
    g.sample_size(20);
    g.bench_function("section3_honey_findings", |b| {
        b.iter(|| black_box(Section3::run(fx.world(), fx.honey.clone())))
    });
    g.bench_function("section5_enforcement", |b| {
        b.iter(|| black_box(Section5::run(fx.world(), &fx.artifacts)))
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("extensions");
    g.sample_size(20);
    g.bench_function("monetization_arbitrage", |b| {
        b.iter(|| black_box(Monetization::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("disclosure_round", |b| {
        b.iter(|| black_box(Disclosure::run(fx.world(), &fx.artifacts)))
    });
    g.bench_function("detector_train_eval", |b| {
        b.iter(|| black_box(DetectorEval::run(fx.world(), &fx.artifacts)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tables,
    bench_figures,
    bench_sections,
    bench_extensions
);
criterion_main!(benches);
