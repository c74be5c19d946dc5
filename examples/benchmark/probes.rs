//! Per-layer probes for the traced run: each times one layer's public
//! entry point directly, per call, on a world of the workload's own
//! configuration. Probes run after the workload's measured part, so
//! they never disturb the untraced numbers.

use crate::driver::Target;
use crate::stats::{percentile, push, Metrics};
use crate::trace::Trace;
use bytes::BytesMut;
use iiscope_core::aggregates::ReportAggregates;
use iiscope_core::World;
use iiscope_monitor::{Dataset, FuzzerConfig, RateBook, UiFuzzer};
use iiscope_netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope_playstore::ChartKind;
use iiscope_types::{SeedFork, SimTime};
use iiscope_wire::http::RequestCtx;
use iiscope_wire::server::HttpEngine;
use iiscope_wire::{Handler, Request};
use std::sync::Arc;
use std::time::Instant;

/// APK pulls the monitor probe times (the study pulls one per package
/// once, after the last day; a sample prices the call).
const APK_SAMPLE: usize = 200;

/// In-process requests per servefront/wire probe.
const ROUTER_CALLS: usize = 20_000;

/// The request context the socket server gives an external client
/// (`iiscope_serve` synthesises the same peer for every connection).
pub fn client_ctx(sim_now: SimTime) -> RequestCtx {
    RequestCtx {
        peer: PeerInfo {
            addr: HostAddr {
                ip: std::net::Ipv4Addr::LOCALHOST,
                asn: AsnId(64512),
                asn_kind: AsnKind::Eyeball,
                country: iiscope_serve::ServeConfig::default().vantage,
            },
            opened_at: sim_now,
            link: SeedFork::new(0),
        },
        now: sim_now,
    }
}

/// One crawl day's worth of monitor calls on `world`, at its study
/// end, each call timed on its own: wall milks (`MonitoringInfra::milk`),
/// dataset ingest (`Dataset::add_offers`), the day's aggregate fold,
/// profile crawls, chart crawls and a sample of APK pulls. Returns the
/// metrics and the probe day's summed call time.
pub fn monitor(world: &World, trace: &Trace, parent: u64) -> Result<(Metrics, f64), String> {
    let now = world.study_end();
    let fuzzer = UiFuzzer::new(FuzzerConfig {
        max_scroll_pages: world.cfg.fuzzer_pages,
    });
    let mut m = Metrics::new();
    let mut day_s = 0.0;

    let mut milk_ms = Vec::new();
    let mut add_us = Vec::new();
    let mut offers = 0u64;
    let mut ds = Dataset::with_interner(world.syms.clone());
    trace.span("monitor.milk", parent, |_| -> Result<(), String> {
        for app in &world.affiliate_apps {
            for &country in &world.cfg.milk_countries {
                let t = Instant::now();
                let milked = world
                    .infra
                    .milk(app, country, &fuzzer)
                    .map_err(|e| format!("monitor probe: milk {country}: {e}"))?;
                milk_ms.push(t.elapsed().as_secs_f64() * 1e3);
                offers += milked.len() as u64;
                let t = Instant::now();
                ds.add_offers(milked);
                add_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(())
    })?;
    day_s += milk_ms.iter().sum::<f64>() / 1e3 + add_us.iter().sum::<f64>() / 1e6;
    let calls = milk_ms.len() as f64;
    push(
        &mut m,
        "monitor.milk_ms.p50",
        percentile(&mut milk_ms, 50.0),
        "ms",
    );
    push(
        &mut m,
        "monitor.milk_ms.max",
        percentile(&mut milk_ms, 100.0),
        "ms",
    );
    push(&mut m, "monitor.milk_calls", calls, "count");
    push(
        &mut m,
        "monitor.offers_per_milk",
        offers as f64 / calls.max(1.0),
        "count",
    );
    push(
        &mut m,
        "monitor.add_offers_us.p50",
        percentile(&mut add_us, 50.0),
        "us",
    );

    let book = RateBook::from_catalog(&world.affiliate_apps);
    let t = Instant::now();
    trace.span("aggregates.fold_day", parent, |_| {
        ReportAggregates::new().fold_day(&ds, &book)
    });
    let fold_us = t.elapsed().as_secs_f64() * 1e6;
    push(&mut m, "aggregates.fold_day_us", fold_us, "us");

    let packages: Vec<String> = ds
        .advertised_packages()
        .into_iter()
        .map(str::to_string)
        .chain(world.plan.baseline.iter().map(|b| b.package.to_string()))
        .collect();
    let mut profile_us = Vec::with_capacity(packages.len());
    trace.span("monitor.profile", parent, |_| -> Result<(), String> {
        for (j, pkg) in packages.iter().enumerate() {
            let mut crawler = world.crawler_indexed(j as u64);
            let t = Instant::now();
            crawler
                .profile(pkg, now)
                .map_err(|e| format!("monitor probe: profile {pkg}: {e}"))?;
            profile_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })?;
    day_s += profile_us.iter().sum::<f64>() / 1e6;
    push(
        &mut m,
        "monitor.profile_us.p50",
        percentile(&mut profile_us, 50.0),
        "us",
    );
    push(
        &mut m,
        "monitor.profile_us.p99",
        percentile(&mut profile_us, 99.0),
        "us",
    );

    let mut chart_ms = Vec::new();
    let mut crawler = world.crawler();
    trace.span("monitor.chart", parent, |_| -> Result<(), String> {
        for kind in ChartKind::ALL {
            let t = Instant::now();
            crawler
                .chart(kind, world.cfg.chart_size, now)
                .map_err(|e| format!("monitor probe: chart: {e}"))?;
            chart_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    })?;
    day_s += chart_ms.iter().sum::<f64>() / 1e3;
    push(
        &mut m,
        "monitor.chart_ms.p50",
        percentile(&mut chart_ms, 50.0),
        "ms",
    );

    let mut apk_us = Vec::new();
    trace.span("monitor.apk", parent, |_| -> Result<(), String> {
        for (j, pkg) in packages.iter().take(APK_SAMPLE).enumerate() {
            let mut crawler = world.crawler_indexed(j as u64);
            let t = Instant::now();
            crawler
                .apk(pkg)
                .map_err(|e| format!("monitor probe: apk {pkg}: {e}"))?;
            apk_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })?;
    push(
        &mut m,
        "monitor.apk_us.p50",
        percentile(&mut apk_us, 50.0),
        "us",
    );
    day_s += fold_us / 1e6;
    Ok((m, day_s))
}

/// Times `ROUTER_CALLS` in-process calls of `handler` cycling over
/// `targets`, returning per-call microseconds.
fn time_calls(handler: &dyn Handler, targets: &[Target], ctx: &RequestCtx) -> Vec<f64> {
    let requests: Vec<Request> = targets
        .iter()
        .map(|t| Request::get(t.target.clone()))
        .collect();
    (0..ROUTER_CALLS)
        .map(|k| {
            let t = Instant::now();
            std::hint::black_box(handler.handle(&requests[k % requests.len()], ctx));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The serve front in process: cache hits (warm cached router, hot
/// mix), misses (uncached router, crawl mix), and the HTTP engine's
/// parse-dispatch-encode over the hot mix on the cached router.
pub fn servefront(
    world: &World,
    hot: &[Target],
    crawl: &[Target],
    trace: &Trace,
    parent: u64,
) -> Metrics {
    let ctx = client_ctx(world.study_end());
    let mut m = Metrics::new();
    let cached = world.serve_router();
    for t in hot {
        cached.handle(&Request::get(t.target.clone()), &ctx);
    }
    let mut hit = trace.span("servefront.hit", parent, |_| {
        time_calls(&*cached, hot, &ctx)
    });
    push(
        &mut m,
        "servefront.hit_us.p50",
        percentile(&mut hit, 50.0),
        "us",
    );
    push(
        &mut m,
        "servefront.hit_us.p99",
        percentile(&mut hit, 99.0),
        "us",
    );

    let uncached = world.serve_router_uncached();
    let mut miss = trace.span("servefront.miss", parent, |_| {
        time_calls(&*uncached, crawl, &ctx)
    });
    push(
        &mut m,
        "servefront.miss_us.p50",
        percentile(&mut miss, 50.0),
        "us",
    );
    push(
        &mut m,
        "servefront.miss_us.p99",
        percentile(&mut miss, 99.0),
        "us",
    );

    let handler: Arc<dyn Handler> = cached;
    let mut engine = HttpEngine::new(handler);
    let mut out = BytesMut::new();
    let mut engine_us = trace.span("wire.engine", parent, |_| {
        (0..ROUTER_CALLS)
            .map(|k| {
                let wire = &hot[k % hot.len()].wire;
                let t = Instant::now();
                engine.feed_slice(wire, ctx.peer, ctx.now, &mut out);
                let us = t.elapsed().as_secs_f64() * 1e6;
                out.clear();
                us
            })
            .collect::<Vec<f64>>()
    });
    push(
        &mut m,
        "wire.engine_us.p50",
        percentile(&mut engine_us, 50.0),
        "us",
    );
    m
}
