//! The connection-reuse contract of `HttpClient` (DESIGN §17): a
//! session stays open for the next request to the same scheme, host
//! and port, closes on any failed or unclean exchange, and never
//! crosses a checkpoint. Also the record MAC's detection guarantee,
//! which every reused session leans on.

use iiscope::subsystems::attribution::ConversionGoal;
use iiscope::subsystems::devices::AffiliateApp;
use iiscope::subsystems::iip::{CampaignSpec, DeveloperApplication};
use iiscope::subsystems::monitor::UiFuzzer;
use iiscope::subsystems::netsim::{
    AsnId, AsnKind, FaultPlan, HostAddr, Network, PeerInfo, ServerIo, Session, SessionFactory,
};
use iiscope::subsystems::types::{Country, DeveloperId, PackageName, SeedFork, Usd};
use iiscope::subsystems::wire::http::RequestCtx;
use iiscope::subsystems::wire::server::{HttpEngine, HttpFactory, HttpsFactory};
use iiscope::subsystems::wire::tls::{
    seal_records, CertAuthority, RecordDecoder, RecordType, ServerIdentity, TrustStore,
};
use iiscope::subsystems::wire::{Handler, HttpClient, Request, Response};
use iiscope::{World, WorldConfig};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn client_addr() -> HostAddr {
    HostAddr {
        ip: Ipv4Addr::new(192, 168, 7, 2),
        asn: AsnId(1),
        asn_kind: AsnKind::Eyeball,
        country: Country::Us,
    }
}

fn handler() -> Arc<dyn Handler> {
    Arc::new(|req: &Request, _ctx: &RequestCtx| -> Response {
        match req.path() {
            "/close" => {
                let mut resp = Response::ok_text("bye");
                resp.headers.set("Connection", "keep-alive, close");
                resp
            }
            path => Response::ok_text(format!("{path} {}", req.target)),
        }
    })
}

/// How a [`Quirky`] session damages its replies.
#[derive(Clone, Copy)]
enum Quirk {
    /// Cut the reply of the session's second turn in half.
    TruncateSecondReply,
    /// Append stray bytes after every response.
    TrailingBytes,
}

/// An HTTP session that answers through the real engine, then applies
/// its [`Quirk`].
struct Quirky {
    engine: HttpEngine,
    quirk: Quirk,
    turns: u32,
}

impl Session for Quirky {
    fn on_turn(&mut self, io: &mut ServerIo<'_>) {
        self.turns += 1;
        let data = io.recv_all();
        let (peer, now) = (io.peer(), io.now());
        let out = io.outgoing();
        self.engine.feed_into(&data, peer, now, out);
        match self.quirk {
            Quirk::TruncateSecondReply if self.turns == 2 => out.truncate(out.len() / 2),
            Quirk::TruncateSecondReply => {}
            Quirk::TrailingBytes => out.extend_from_slice(b"junk"),
        }
    }
}

struct QuirkyFactory(Quirk);

impl SessionFactory for QuirkyFactory {
    fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
        Box::new(Quirky {
            engine: HttpEngine::new(handler()),
            quirk: self.0,
            turns: 0,
        })
    }
}

struct Rig {
    net: Network,
    roots: TrustStore,
}

/// `plain.test` on ports 80 and 8080, `other.test` on 80,
/// `secure.test` on 443, and the two quirky hosts on 80.
fn rig(seed: u64) -> Rig {
    let seed = SeedFork::new(seed);
    let net = Network::new(seed.fork("net"));
    let plain = Ipv4Addr::new(10, 7, 0, 1);
    for port in [80, 8080] {
        net.bind(plain, port, Arc::new(HttpFactory::new(handler())))
            .unwrap();
    }
    net.register_host("plain.test", plain);
    let other = Ipv4Addr::new(10, 7, 0, 2);
    net.bind(other, 80, Arc::new(HttpFactory::new(handler())))
        .unwrap();
    net.register_host("other.test", other);
    let mut ca = CertAuthority::new("Root", seed.fork("ca"));
    let identity = ServerIdentity::issue(&mut ca, "secure.test", seed.fork("id"));
    let mut roots = TrustStore::new();
    roots.install_root(ca.root_cert());
    let secure = Ipv4Addr::new(10, 7, 0, 3);
    net.bind(
        secure,
        443,
        Arc::new(HttpsFactory::new(handler(), identity, seed.fork("https"))),
    )
    .unwrap();
    net.register_host("secure.test", secure);
    for (i, (host, quirk)) in [
        ("truncating.test", Quirk::TruncateSecondReply),
        ("trailing.test", Quirk::TrailingBytes),
    ]
    .into_iter()
    .enumerate()
    {
        let ip = Ipv4Addr::new(10, 7, 1, i as u8 + 1);
        net.bind(ip, 80, Arc::new(QuirkyFactory(quirk))).unwrap();
        net.register_host(host, ip);
    }
    Rig { net, roots }
}

impl Rig {
    fn client(&self, seed: u64) -> HttpClient {
        HttpClient::new(
            self.net.clone(),
            client_addr(),
            self.roots.clone(),
            SeedFork::new(seed),
        )
    }

    fn connections(&self) -> u64 {
        self.net.metrics().connections
    }

    /// GETs `url` and returns the body plus the connections it opened.
    fn get(&self, c: &mut HttpClient, url: &str) -> (String, u64) {
        let before = self.connections();
        let body = c.get(url).unwrap().body_text();
        (body, self.connections() - before)
    }
}

#[test]
fn one_milk_opens_one_phone_and_one_upstream_connection_per_tab() {
    let world = World::build(WorldConfig::small(5)).unwrap();
    let app = AffiliateApp::table2_catalog().remove(0);
    let developer = DeveloperId(900_001);
    // Three full pages and a short one on every tab's wall.
    for tab in &app.tabs {
        let platform = &world.platforms[&tab.iip];
        platform
            .register_developer(&DeveloperApplication {
                developer,
                has_tax_id: true,
                has_bank_account: true,
                deposit: Usd::from_dollars(10_000),
            })
            .unwrap();
        for i in 0..35 {
            let package = format!("com.keepalive.{}.app{i}", tab.iip.slug());
            platform
                .create_campaign(
                    CampaignSpec {
                        developer,
                        store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                        package: PackageName::new(package).unwrap(),
                        goal: ConversionGoal::InstallAndOpen,
                        payout: Usd::from_cents(30),
                        cap: 10,
                        countries: vec![],
                    },
                    world.study_start(),
                )
                .unwrap();
        }
    }
    let mut phone = world.infra.phone_client(Country::Us).unwrap();
    let before = world.net.metrics().connections;
    let run = UiFuzzer::default().drive(&app, &mut phone).unwrap();
    let opened = world.net.metrics().connections - before;
    assert_eq!(run.failed_requests, 0);
    assert_eq!(run.tabs, app.tabs.len());
    assert_eq!(run.pages, 5 * run.tabs, "4 pages with offers + 1 empty");
    assert_eq!(opened, 2 * run.tabs as u64, "{run:?}");
}

#[test]
fn requests_to_one_origin_share_a_session() {
    let r = rig(1);
    let mut c = r.client(1);
    assert_eq!(r.get(&mut c, "http://plain.test/a").1, 1);
    assert_eq!(
        r.get(&mut c, "http://plain.test/b?x=1"),
        ("/b /b?x=1".into(), 0)
    );
    assert_eq!(r.get(&mut c, "http://plain.test:80/c").1, 0);
    assert_eq!(r.get(&mut c, "https://secure.test/d").1, 1);
    assert_eq!(r.get(&mut c, "https://secure.test/e").1, 0);
}

#[test]
fn a_new_host_or_port_dials_a_new_session() {
    let r = rig(2);
    let mut c = r.client(2);
    let mut opened = Vec::new();
    for url in [
        "http://plain.test/a",
        "http://plain.test:8080/b",
        "http://plain.test:8080/c",
        "http://other.test/d",
        "http://plain.test/e",
        "https://secure.test/f",
        // Same host, another scheme: never the TLS session.
        "http://plain.test/g",
    ] {
        opened.push(r.get(&mut c, url).1);
    }
    assert_eq!(opened, [1, 1, 0, 1, 1, 1, 1]);
}

#[test]
fn close_idle_makes_the_next_request_dial() {
    let r = rig(3);
    let mut c = r.client(3);
    assert_eq!(r.get(&mut c, "https://secure.test/a").1, 1);
    c.close_idle();
    assert_eq!(r.get(&mut c, "https://secure.test/b").1, 1);
    assert_eq!(r.get(&mut c, "https://secure.test/c").1, 0);
}

#[test]
fn failed_exchange_on_a_reused_session_closes_it_and_the_retry_dials_fresh() {
    let r = rig(4);
    let mut c = r.client(4).with_retries(1);
    // Turn 1 of connection 1 is clean and leaves the session idle.
    assert_eq!(r.get(&mut c, "http://truncating.test/a").1, 1);
    // Turn 2 on the reused session is cut short: the session closes
    // and the one retry succeeds on a fresh connection.
    assert_eq!(
        r.get(&mut c, "http://truncating.test/b"),
        ("/b /b".into(), 1)
    );
    // That fresh session is now the idle one, and fails the same way.
    let before = r.connections();
    assert_eq!(c.get("http://truncating.test/c").unwrap().status, 200);
    assert_eq!(r.connections() - before, 1);

    // With no retry budget the failure surfaces, and the next request
    // still dials rather than reusing the broken session.
    let mut c = r.client(5).with_retries(0);
    assert_eq!(r.get(&mut c, "http://truncating.test/a").1, 1);
    let err = c.get("http://truncating.test/b").unwrap_err();
    assert_eq!(err.kind(), "network");
    assert_eq!(r.get(&mut c, "http://truncating.test/c").1, 1);
}

#[test]
fn trailing_bytes_or_connection_close_end_the_session() {
    let r = rig(6);
    let mut c = r.client(6);
    // The response parses, so the request succeeds, but the stray
    // bytes after it mean the stream is out of step: every request
    // dials anew.
    for path in ["a", "b", "c"] {
        let (body, opened) = r.get(&mut c, &format!("http://trailing.test/{path}"));
        assert_eq!(body, format!("/{path} /{path}"));
        assert_eq!(opened, 1);
    }
    assert_eq!(r.get(&mut c, "http://plain.test/a").1, 1);
    assert_eq!(r.get(&mut c, "http://plain.test/close"), ("bye".into(), 0));
    assert_eq!(r.get(&mut c, "http://plain.test/b").1, 1);
    assert_eq!(r.get(&mut c, "http://plain.test/c").1, 0);
}

/// Runs `urls` on a lossy network, closing the idle session after
/// `split` requests; with `resume`, the rest runs on a fresh client
/// restored from a checkpoint taken there. Returns each outcome and
/// the connections opened.
fn lossy_run(urls: &[String], split: usize, resume: bool) -> (Vec<String>, u64) {
    let r = rig(7);
    r.net.set_default_fault(FaultPlan::lossy(0.15, 0.1));
    let mut c = r.client(77).with_retries(3);
    let mut outcomes = Vec::new();
    let mut fetch = |c: &mut HttpClient, url: &String| {
        outcomes.push(match c.get(url) {
            Ok(resp) => resp.body_text(),
            Err(e) => format!("error: {e}"),
        });
    };
    for url in &urls[..split] {
        fetch(&mut c, url);
    }
    c.close_idle();
    if resume {
        let state = c.checkpoint();
        c = r.client(77).with_retries(3);
        c.restore(&state);
    }
    for url in &urls[split..] {
        fetch(&mut c, url);
    }
    (outcomes, r.connections())
}

#[test]
fn checkpoint_after_close_idle_resumes_like_an_unbroken_client() {
    let urls: Vec<String> = (0..40)
        .map(|i| match i % 5 {
            0 | 1 => format!("https://secure.test/s{i}"),
            2 | 3 => format!("http://plain.test/p{i}"),
            _ => format!("http://plain.test:8080/q{i}"),
        })
        .collect();
    for split in [1, 13, 26] {
        let straight = lossy_run(&urls, split, false);
        let resumed = lossy_run(&urls, split, true);
        assert_eq!(straight, resumed, "split at {split}");
        // The plan is lossy enough to exercise retries and closes.
        assert!(straight.1 > 10, "{straight:?}");
        assert!(straight.0.iter().any(|o| !o.starts_with("error")));
    }
}

/// True when `wire` decodes to exactly one authenticated record.
fn accepted(key: u64, seq: u64, wire: &[u8]) -> bool {
    let mut decoder = RecordDecoder::new();
    decoder.extend(wire);
    let mut recv = seq;
    matches!(decoder.next_record(key, &mut recv), Ok(Some(_))) && decoder.pending() == 0
}

proptest! {
    #[test]
    fn record_mac_rejects_every_byte_flip_and_truncation(
        payload in prop::collection::vec(any::<u8>(), 0..2100),
        key in any::<u64>(),
        seq in any::<u64>(),
        masks in prop::collection::vec(1u8..=255, 1..8),
        handshake in any::<bool>(),
    ) {
        // The null key is the handshake's: readable but still MACed.
        let (key, rtype) = if handshake {
            (0, RecordType::Handshake)
        } else {
            (key, RecordType::AppData)
        };
        let mut send = seq;
        let wire = seal_records(key, &mut send, rtype, &payload);
        prop_assert!(accepted(key, seq, &wire));
        for i in 0..wire.len() {
            let mut damaged = wire.to_vec();
            damaged[i] ^= masks[i % masks.len()];
            prop_assert!(
                !accepted(key, seq, &damaged),
                "flip at byte {i} of {} went undetected", wire.len()
            );
        }
        for keep in 0..wire.len() {
            prop_assert!(
                !accepted(key, seq, &wire[..keep]),
                "truncation to {keep} of {} bytes went undetected", wire.len()
            );
        }
    }
}
