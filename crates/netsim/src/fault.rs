//! Fault injection for the simulated network.
//!
//! Grown from smoltcp-style memoryless coin flips into schedulable
//! adversarial plans. A [`FaultPlan`] can model:
//!
//! * memoryless loss and one-octet corruption (the original knobs);
//! * **bursty loss** via a two-state [`GilbertElliott`] channel — the
//!   classic model for the correlated drop trains real mobile links
//!   exhibit;
//! * **outage windows** ([`OutageWindow`]) — scheduled partitions
//!   during which the link delivers nothing, keyed on simulated time;
//! * **stalls** — the link accepts a payload and then never answers
//!   (the accepted-then-never-answered failure of flaky proxies);
//! * **truncation** and **garbage** injection — payloads cut mid-stream
//!   or overwritten below the TLS layer;
//! * a **bandwidth cap** that converts payload size into extra latency.
//!
//! Every probabilistic decision draws from the per-link seeded RNG the
//! caller passes in, so any failure reproduces exactly from
//! `(seed, plan)`. Features that are disabled consume **no** RNG draws:
//! a plan with only the original knobs set produces the identical draw
//! sequence the pre-chaos injector did, which keeps clean-network runs
//! byte-for-byte stable. The TLS layer in `iiscope-wire` authenticates
//! records, so injected damage surfaces exactly like real-world
//! tampering — as a MAC failure — which the pipeline must tolerate.

use iiscope_types::{chaosstats::ChaosCounters, SimDuration, SimTime};
use rand::Rng;

/// Two-state Gilbert–Elliott loss channel: a `good` state with low
/// loss and a `bad` (burst) state with high loss, with per-delivery
/// transition probabilities between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    p_enter: f64,
    p_exit: f64,
    loss_good: f64,
    loss_bad: f64,
    bad: bool,
}

impl GilbertElliott {
    /// Creates a channel starting in the good state. All four rates are
    /// clamped into `[0, 1]`, so a plan built from arbitrary inputs is
    /// always a valid probability model.
    pub fn new(p_enter: f64, p_exit: f64, loss_good: f64, loss_bad: f64) -> GilbertElliott {
        GilbertElliott {
            p_enter: p_enter.clamp(0.0, 1.0),
            p_exit: p_exit.clamp(0.0, 1.0),
            loss_good: loss_good.clamp(0.0, 1.0),
            loss_bad: loss_bad.clamp(0.0, 1.0),
            bad: false,
        }
    }

    /// Probability of entering the burst state per delivery.
    pub fn p_enter(&self) -> f64 {
        self.p_enter
    }

    /// Probability of leaving the burst state per delivery.
    pub fn p_exit(&self) -> f64 {
        self.p_exit
    }

    /// Loss rate while in the good state.
    pub fn loss_good(&self) -> f64 {
        self.loss_good
    }

    /// Loss rate while in the burst state.
    pub fn loss_bad(&self) -> f64 {
        self.loss_bad
    }

    /// Advances the channel one delivery and returns whether that
    /// delivery is lost. Always exactly two RNG draws.
    fn step(&mut self, rng: &mut impl Rng) -> bool {
        let flip = if self.bad { self.p_exit } else { self.p_enter };
        if iiscope_types::rng::chance(rng, flip) {
            self.bad = !self.bad;
        }
        let loss = if self.bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        iiscope_types::rng::chance(rng, loss)
    }
}

/// A scheduled link outage: nothing is delivered while the link-local
/// time is within `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First instant of the outage (inclusive).
    pub from: SimTime,
    /// End of the outage (exclusive).
    pub until: SimTime,
}

impl OutageWindow {
    /// Creates a window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> OutageWindow {
        OutageWindow { from, until }
    }

    /// Whether `t` falls inside the outage.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Per-link fault and latency plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability that a delivery attempt is dropped entirely.
    pub drop_chance: f64,
    /// Probability that one octet of a delivered payload is flipped.
    pub corrupt_chance: f64,
    /// Probability that a delivered payload is truncated mid-stream.
    pub truncate_chance: f64,
    /// Probability that a delivered payload is overwritten with
    /// RNG garbage.
    pub garbage_chance: f64,
    /// Probability that the link accepts the payload and then never
    /// answers (the exchange times out after side effects happened).
    pub stall_chance: f64,
    /// Deliveries larger than this are dropped (None = unlimited).
    pub size_limit: Option<usize>,
    /// Bandwidth cap in bytes per simulated second: payload size adds
    /// `ceil(len / bandwidth)` seconds of latency (None = unlimited).
    pub bandwidth: Option<u64>,
    /// Bursty-loss channel (None = memoryless only).
    pub burst: Option<GilbertElliott>,
    /// Scheduled outage windows, checked against link-local time.
    pub outages: Vec<OutageWindow>,
    /// Base one-way latency.
    pub base_latency: SimDuration,
    /// Max uniform extra jitter added on top of the base latency.
    pub jitter: SimDuration,
}

impl Default for FaultPlan {
    /// A well-behaved link: no faults, 40 ms-class latency rounded to
    /// the 1-second clock resolution (i.e. zero), so tests that don't
    /// care about time see a still clock.
    fn default() -> FaultPlan {
        FaultPlan {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            truncate_chance: 0.0,
            garbage_chance: 0.0,
            stall_chance: 0.0,
            size_limit: None,
            bandwidth: None,
            burst: None,
            outages: Vec::new(),
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
        }
    }
}

impl FaultPlan {
    /// A perfect link (alias of [`FaultPlan::default`]).
    pub fn perfect() -> FaultPlan {
        FaultPlan::default()
    }

    /// A lossy link with the given drop and corruption chances.
    pub fn lossy(drop_chance: f64, corrupt_chance: f64) -> FaultPlan {
        FaultPlan {
            drop_chance,
            corrupt_chance,
            ..FaultPlan::default()
        }
    }

    /// A link with fixed latency and uniform jitter.
    pub fn with_latency(mut self, base: SimDuration, jitter: SimDuration) -> FaultPlan {
        self.base_latency = base;
        self.jitter = jitter;
        self
    }

    /// Sets a maximum delivery size.
    pub fn with_size_limit(mut self, limit: usize) -> FaultPlan {
        self.size_limit = Some(limit);
        self
    }

    /// Adds a Gilbert–Elliott bursty-loss channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> FaultPlan {
        self.burst = Some(burst);
        self
    }

    /// Schedules an outage window (may be called repeatedly).
    pub fn with_outage(mut self, window: OutageWindow) -> FaultPlan {
        self.outages.push(window);
        self
    }

    /// Sets the stall probability.
    pub fn with_stall(mut self, chance: f64) -> FaultPlan {
        self.stall_chance = chance;
        self
    }

    /// Sets the mid-stream truncation probability.
    pub fn with_truncation(mut self, chance: f64) -> FaultPlan {
        self.truncate_chance = chance;
        self
    }

    /// Sets the garbage-overwrite probability.
    pub fn with_garbage(mut self, chance: f64) -> FaultPlan {
        self.garbage_chance = chance;
        self
    }

    /// Caps the link at `bytes_per_sec` (slow-link model).
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> FaultPlan {
        self.bandwidth = Some(bytes_per_sec.max(1));
        self
    }

    /// Decides the fate of one delivery at link-local time `now`.
    /// Mutates `payload` in place on damage, counts each fault that
    /// fired into `chaos` (the connection's book) and returns the
    /// verdict.
    ///
    /// `&mut self` because the burst channel carries state between
    /// deliveries; each connection owns a clone of the plan, so burst
    /// state is per-link. Disabled features consume no RNG draws — a
    /// plan using only drop/corrupt produces the legacy draw sequence.
    pub fn apply(
        &mut self,
        rng: &mut impl Rng,
        now: SimTime,
        payload: &mut bytes::BytesMut,
        chaos: &ChaosCounters,
    ) -> Verdict {
        if self.outages.iter().any(|w| w.contains(now)) {
            chaos.add_drops_outage(1);
            return Verdict::Dropped(DropReason::Outage);
        }
        if let Some(limit) = self.size_limit {
            if payload.len() > limit {
                chaos.add_drops_oversize(1);
                return Verdict::Dropped(DropReason::TooLarge);
            }
        }
        if iiscope_types::rng::chance(rng, self.drop_chance) {
            chaos.add_drops_random(1);
            return Verdict::Dropped(DropReason::Random);
        }
        if let Some(burst) = &mut self.burst {
            if burst.step(rng) {
                chaos.add_drops_burst(1);
                return Verdict::Dropped(DropReason::Burst);
            }
        }
        let mut corrupted = false;
        if !payload.is_empty() && iiscope_types::rng::chance(rng, self.corrupt_chance) {
            let idx = rng.gen_range(0..payload.len());
            let bit = 1u8 << rng.gen_range(0..8);
            payload[idx] ^= bit;
            corrupted = true;
            chaos.add_corruptions(1);
        }
        if self.truncate_chance > 0.0
            && payload.len() > 1
            && iiscope_types::rng::chance(rng, self.truncate_chance)
        {
            let keep = rng.gen_range(1..payload.len());
            payload.truncate(keep);
            corrupted = true;
            chaos.add_truncations(1);
        }
        if self.garbage_chance > 0.0
            && !payload.is_empty()
            && iiscope_types::rng::chance(rng, self.garbage_chance)
        {
            rng.fill(&mut payload[..]);
            corrupted = true;
            chaos.add_garbage(1);
        }
        if self.stall_chance > 0.0 && iiscope_types::rng::chance(rng, self.stall_chance) {
            chaos.add_stalls(1);
            return Verdict::Stalled;
        }
        let latency = self.delivery_latency(rng, payload.len());
        Verdict::Delivered { corrupted, latency }
    }

    /// Samples a one-way latency for this link (propagation only; the
    /// bandwidth term is added per delivery by [`FaultPlan::apply`]).
    pub fn sample_latency(&self, rng: &mut impl Rng) -> SimDuration {
        let jitter = if self.jitter.secs() == 0 {
            0
        } else {
            rng.gen_range(0..=self.jitter.secs())
        };
        SimDuration::from_secs(self.base_latency.secs() + jitter)
    }

    /// Propagation latency plus the slow-link transfer time for a
    /// `len`-byte payload.
    fn delivery_latency(&self, rng: &mut impl Rng, len: usize) -> SimDuration {
        let mut latency = self.sample_latency(rng);
        if let Some(bps) = self.bandwidth {
            latency = latency + SimDuration::from_secs((len as u64).div_ceil(bps.max(1)));
        }
        latency
    }
}

/// Why a delivery was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random (memoryless) loss.
    Random,
    /// Loss during a Gilbert–Elliott burst.
    Burst,
    /// The link was inside a scheduled outage window.
    Outage,
    /// Payload exceeded the link's size limit.
    TooLarge,
}

/// Outcome of one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The payload was (possibly damaged and) delivered after
    /// `latency`.
    Delivered {
        /// Whether a corruption/truncation/garbage fault fired.
        corrupted: bool,
        /// Sampled one-way latency (including slow-link transfer time).
        latency: SimDuration,
    },
    /// The link accepted the payload but will never answer; the
    /// exchange times out after delivery-side effects happened.
    Stalled,
    /// The payload was dropped.
    Dropped(DropReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use iiscope_types::SeedFork;

    fn buf(bytes: &[u8]) -> BytesMut {
        let mut b = BytesMut::new();
        b.extend_from_slice(bytes);
        b
    }

    const NOW: SimTime = SimTime::EPOCH;

    #[test]
    fn perfect_link_never_mutates() {
        let mut plan = FaultPlan::perfect();
        let mut rng = SeedFork::new(1).rng();
        let book = ChaosCounters::new();
        for _ in 0..100 {
            let mut payload = buf(&[1, 2, 3]);
            match plan.apply(&mut rng, NOW, &mut payload, &book) {
                Verdict::Delivered { corrupted, latency } => {
                    assert!(!corrupted);
                    assert_eq!(latency, SimDuration::ZERO);
                    assert_eq!(&payload[..], &[1, 2, 3]);
                }
                v => panic!("unexpected {v:?}"),
            }
        }
        assert!(
            book.snapshot().iter().all(|&(_, v)| v == 0),
            "nothing fired"
        );
    }

    #[test]
    fn legacy_draw_sequence_is_preserved() {
        // A drop/corrupt-only plan must consume the RNG exactly as the
        // pre-chaos injector did: [drop, corrupt] per non-empty
        // delivery. Verified by checking the rng positions directly.
        let mut plan = FaultPlan::lossy(0.25, 0.25);
        let mut rng = SeedFork::new(9).rng();
        let book = ChaosCounters::new();
        let mut reference = SeedFork::new(9).rng();
        for _ in 0..200 {
            let mut payload = buf(&[7u8; 5]);
            let verdict = plan.apply(&mut rng, NOW, &mut payload, &book);
            // Reference replays the legacy logic with its own rng.
            let dropped = iiscope_types::rng::chance(&mut reference, 0.25);
            if dropped {
                assert_eq!(verdict, Verdict::Dropped(DropReason::Random));
                continue;
            }
            let corrupt = iiscope_types::rng::chance(&mut reference, 0.25);
            if corrupt {
                let _idx: usize = reference.gen_range(0..5);
                let _bit: u32 = reference.gen_range(0..8);
            }
            match verdict {
                Verdict::Delivered { corrupted, .. } => assert_eq!(corrupted, corrupt),
                v => panic!("unexpected {v:?}"),
            }
        }
    }

    #[test]
    fn drop_chance_roughly_honoured() {
        let mut plan = FaultPlan::lossy(0.3, 0.0);
        let mut rng = SeedFork::new(2).rng();
        let book = ChaosCounters::new();
        let n = 10_000;
        let drops = (0..n)
            .filter(|_| {
                matches!(
                    plan.apply(&mut rng, NOW, &mut buf(&[0u8; 4]), &book),
                    Verdict::Dropped(DropReason::Random)
                )
            })
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        assert_eq!(book.drops_random(), drops as u64, "every drop is counted");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut plan = FaultPlan::lossy(0.0, 1.0);
        let mut rng = SeedFork::new(3).rng();
        let book = ChaosCounters::new();
        let original = vec![0xAAu8; 16];
        let mut payload = buf(&original);
        match plan.apply(&mut rng, NOW, &mut payload, &book) {
            Verdict::Delivered { corrupted, .. } => assert!(corrupted),
            v => panic!("unexpected {v:?}"),
        }
        let flipped_bits: u32 = original
            .iter()
            .zip(payload.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped_bits, 1);
        assert_eq!(book.corruptions(), 1);
    }

    #[test]
    fn size_limit_drops_large_payloads() {
        let mut plan = FaultPlan::perfect().with_size_limit(8);
        let mut rng = SeedFork::new(4).rng();
        let book = ChaosCounters::new();
        assert!(matches!(
            plan.apply(&mut rng, NOW, &mut buf(&[0u8; 8]), &book),
            Verdict::Delivered { .. }
        ));
        assert_eq!(
            plan.apply(&mut rng, NOW, &mut buf(&[0u8; 9]), &book),
            Verdict::Dropped(DropReason::TooLarge)
        );
        assert_eq!(book.drops_oversize(), 1);
    }

    #[test]
    fn latency_within_bounds() {
        let plan =
            FaultPlan::perfect().with_latency(SimDuration::from_secs(2), SimDuration::from_secs(3));
        let mut rng = SeedFork::new(5).rng();
        for _ in 0..200 {
            let l = plan.sample_latency(&mut rng).secs();
            assert!((2..=5).contains(&l), "latency {l}");
        }
    }

    #[test]
    fn empty_payload_never_corrupts() {
        let mut plan = FaultPlan::lossy(0.0, 1.0);
        let mut rng = SeedFork::new(6).rng();
        let book = ChaosCounters::new();
        let mut payload = BytesMut::new();
        match plan.apply(&mut rng, NOW, &mut payload, &book) {
            Verdict::Delivered { corrupted, .. } => assert!(!corrupted),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn burst_losses_are_correlated() {
        // Deterministic burst channel: no loss in good, total loss in
        // bad. Losses must arrive in runs, not scattered singles.
        let mut plan = FaultPlan::perfect().with_burst(GilbertElliott::new(0.05, 0.25, 0.0, 1.0));
        let mut rng = SeedFork::new(7).rng();
        let book = ChaosCounters::new();
        let outcomes: Vec<bool> = (0..4000)
            .map(|_| {
                matches!(
                    plan.apply(&mut rng, NOW, &mut buf(&[0u8; 4]), &book),
                    Verdict::Dropped(DropReason::Burst)
                )
            })
            .collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 200, "bursts never fired ({losses})");
        assert_eq!(book.drops_burst(), losses as u64);
        // Count loss runs: correlated loss means far fewer runs than
        // losses (mean burst length 1/p_exit = 4).
        let runs = outcomes.windows(2).filter(|w| !w[0] && w[1]).count().max(1);
        let mean_run = losses as f64 / runs as f64;
        assert!(mean_run > 2.0, "losses not bursty: mean run {mean_run}");
    }

    #[test]
    fn gilbert_elliott_clamps_rates() {
        let ge = GilbertElliott::new(-0.5, 1.5, 2.0, -1.0);
        assert_eq!(ge.p_enter(), 0.0);
        assert_eq!(ge.p_exit(), 1.0);
        assert_eq!(ge.loss_good(), 1.0);
        assert_eq!(ge.loss_bad(), 0.0);
    }

    #[test]
    fn outage_window_blocks_all_deliveries() {
        let window = OutageWindow::new(SimTime::from_secs(100), SimTime::from_secs(200));
        let mut plan = FaultPlan::perfect().with_outage(window);
        let mut rng = SeedFork::new(8).rng();
        let book = ChaosCounters::new();
        assert!(matches!(
            plan.apply(&mut rng, SimTime::from_secs(99), &mut buf(b"x"), &book),
            Verdict::Delivered { .. }
        ));
        for t in [100u64, 150, 199] {
            assert_eq!(
                plan.apply(&mut rng, SimTime::from_secs(t), &mut buf(b"x"), &book),
                Verdict::Dropped(DropReason::Outage)
            );
        }
        assert!(matches!(
            plan.apply(&mut rng, SimTime::from_secs(200), &mut buf(b"x"), &book),
            Verdict::Delivered { .. }
        ));
        assert_eq!(book.drops_outage(), 3);
    }

    #[test]
    fn stall_returns_stalled() {
        let mut plan = FaultPlan::perfect().with_stall(1.0);
        let mut rng = SeedFork::new(10).rng();
        let book = ChaosCounters::new();
        assert_eq!(
            plan.apply(&mut rng, NOW, &mut buf(b"req"), &book),
            Verdict::Stalled
        );
        assert_eq!(book.stalls(), 1);
    }

    #[test]
    fn truncation_shortens_but_keeps_a_prefix() {
        let mut plan = FaultPlan::perfect().with_truncation(1.0);
        let mut rng = SeedFork::new(11).rng();
        let book = ChaosCounters::new();
        let original = vec![0x55u8; 64];
        let mut payload = buf(&original);
        match plan.apply(&mut rng, NOW, &mut payload, &book) {
            Verdict::Delivered { corrupted, .. } => assert!(corrupted),
            v => panic!("unexpected {v:?}"),
        }
        assert!(
            !payload.is_empty() && payload.len() < 64,
            "len {}",
            payload.len()
        );
        assert_eq!(&payload[..], &original[..payload.len()]);
        assert_eq!(book.truncations(), 1);
    }

    #[test]
    fn garbage_rewrites_payload() {
        let mut plan = FaultPlan::perfect().with_garbage(1.0);
        let mut rng = SeedFork::new(12).rng();
        let book = ChaosCounters::new();
        let mut payload = buf(&[0u8; 32]);
        match plan.apply(&mut rng, NOW, &mut payload, &book) {
            Verdict::Delivered { corrupted, .. } => assert!(corrupted),
            v => panic!("unexpected {v:?}"),
        }
        assert_eq!(payload.len(), 32);
        assert!(payload.iter().any(|&b| b != 0), "garbage left zeros intact");
        assert_eq!(book.garbage(), 1);
    }

    #[test]
    fn bandwidth_cap_adds_transfer_time() {
        let mut plan = FaultPlan::perfect().with_bandwidth(10);
        let mut rng = SeedFork::new(13).rng();
        let book = ChaosCounters::new();
        match plan.apply(&mut rng, NOW, &mut buf(&[0u8; 25]), &book) {
            Verdict::Delivered { latency, .. } => {
                assert_eq!(latency, SimDuration::from_secs(3)); // ceil(25/10)
            }
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn same_seed_and_plan_reproduce_verdicts() {
        let plan = FaultPlan::lossy(0.2, 0.1)
            .with_burst(GilbertElliott::new(0.1, 0.3, 0.0, 0.9))
            .with_stall(0.05)
            .with_truncation(0.05);
        let run = |seed: u64| -> Vec<Verdict> {
            let mut plan = plan.clone();
            let mut rng = SeedFork::new(seed).rng();
            let book = ChaosCounters::new();
            (0..500)
                .map(|i| plan.apply(&mut rng, SimTime::from_secs(i), &mut buf(&[3u8; 10]), &book))
                .collect()
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(1235));
    }
}
