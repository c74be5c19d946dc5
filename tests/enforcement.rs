//! Enforcement parity: the production sweep decides from the ledger's
//! running counts and scans install events only when it fires. The
//! full-scan sweep lives here as the oracle, and random
//! sequences of installs, filters and sweeps must leave both ledgers
//! with the same removals, public counts, per-event `filtered` flags
//! and RNG state under every enforcement profile.

use iiscope::subsystems::playstore::engagement::{EngagementLedger, InstallEvent, InstallSignals};
use iiscope::subsystems::playstore::policy::{sweep, EnforcementConfig};
use iiscope::subsystems::types::rng::chance;
use iiscope::subsystems::types::{SeedFork, SimTime};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeMap;

/// The full-scan sweep: every call recounts flagged installs and /24
/// blocks over the app's whole install history, then draws the action
/// chance under the same condition as production.
fn full_scan_sweep(
    ledger: &mut EngagementLedger,
    cfg: &EnforcementConfig,
    rng: &mut impl Rng,
) -> u64 {
    if !cfg.enabled {
        return 0;
    }
    // Hard signals.
    let mut flagged: u64 = ledger
        .install_events()
        .iter()
        .filter(|e| !e.filtered && e.signals.is_suspicious())
        .count() as u64;

    // Optional lockstep pass: count installs in /24 blocks that exceed
    // the burst threshold.
    let mut lockstep_blocks: Vec<u32> = Vec::new();
    if cfg.detect_lockstep {
        let mut per_block: BTreeMap<u32, u64> = BTreeMap::new();
        for e in ledger.install_events().iter().filter(|e| !e.filtered) {
            *per_block.entry(e.signals.block24).or_default() += 1;
        }
        for (block, n) in per_block {
            if n >= cfg.lockstep_threshold {
                lockstep_blocks.push(block);
                flagged += n;
            }
        }
    }

    if flagged < cfg.min_flagged || !chance(rng, cfg.action_prob) {
        return 0;
    }

    // Campaign tags implicated by the flagged installs — but only
    // tags carrying a meaningful amount of flagged traffic.
    let names: Vec<String> = (0..=ledger.tag_count())
        .map(|t| ledger.tag_name(t).to_string())
        .collect();
    let mut tag_counts: BTreeMap<&str, u64> = BTreeMap::new();
    for e in ledger.install_events().iter().filter(|e| {
        !e.filtered
            && !names[e.tag as usize].is_empty()
            && (e.signals.is_suspicious() || lockstep_blocks.contains(&e.signals.block24))
    }) {
        *tag_counts
            .entry(names[e.tag as usize].as_str())
            .or_default() += 1;
    }
    let tags: Vec<String> = tag_counts
        .into_iter()
        .filter(|(_, n)| *n >= cfg.tag_implication_min)
        .map(|(t, _)| t.to_string())
        .collect();

    // Everything matching an implicated tag, a flagged block, or a
    // hard signal is in scope; remove `detection_rate` of it.
    let in_scope = ledger
        .install_events()
        .iter()
        .filter(|e| {
            let tag = &names[e.tag as usize];
            !e.filtered
                && (e.signals.is_suspicious()
                    || lockstep_blocks.contains(&e.signals.block24)
                    || (!tag.is_empty() && tags.binary_search(tag).is_ok()))
        })
        .count() as u64;
    let to_remove = (in_scope as f64 * cfg.detection_rate).ceil() as u64;
    ledger.filter_installs(to_remove, |e| {
        let tag = &names[e.tag as usize];
        e.signals.is_suspicious()
            || lockstep_blocks.contains(&e.signals.block24)
            || (!tag.is_empty() && tags.binary_search(tag).is_ok())
    })
}

const TAGS: [&str; 4] = ["", "fyber-c1", "rankapp-c2", "adgem-c3"];
const THRESHOLDS: [u64; 4] = [0, 1, 2, 12];

/// One generated step: kind (0–5 install, 6–7 filter, 8–9 sweep),
/// block, (emulator, datacenter), (tag index, filter count), seed.
type Step = (u8, u32, (bool, bool), (usize, u64), u64);

/// One profile of the grid: `base` picks default, strict or disabled;
/// `variant` leaves it as is, forces every sweep to act, additionally
/// implicates any tag with a flagged install, or turns lockstep off.
fn config(base: u8, threshold: usize, variant: u8) -> EnforcementConfig {
    let mut cfg = match base {
        0 => EnforcementConfig::default(),
        1 => EnforcementConfig::strict(),
        _ => EnforcementConfig::disabled(),
    };
    cfg.lockstep_threshold = THRESHOLDS[threshold];
    match variant {
        1 => cfg.action_prob = 1.0,
        2 => {
            cfg.action_prob = 1.0;
            cfg.tag_implication_min = 0;
        }
        3 => cfg.detect_lockstep = false,
        _ => {}
    }
    cfg
}

/// Applies one generated step to both ledgers and checks they agree.
fn step(
    fast: &mut EngagementLedger,
    oracle: &mut EngagementLedger,
    cfg: &EnforcementConfig,
    i: usize,
    (kind, block, (emulator, datacenter), (tag, n), seed): Step,
) -> Result<(), proptest::test_runner::TestCaseError> {
    // Blocks 0..8 collide into bursts; the rest are one-off /24s.
    let block24 = if block < 8 { block } else { 1_000 + i as u32 };
    match kind {
        0..=5 => {
            let signals = InstallSignals {
                emulator,
                rooted: emulator,
                datacenter_asn: datacenter,
                block24,
            };
            let at = SimTime::from_days(i as u64 / 16);
            fast.record_install(at, signals, TAGS[tag]);
            oracle.record_install(at, signals, TAGS[tag]);
        }
        6 | 7 => {
            let tag_id = fast
                .install_events()
                .iter()
                .find(|e| fast.tag_name(e.tag) == TAGS[tag])
                .map(|e| e.tag);
            let pred = |e: &InstallEvent| match seed % 4 {
                0 => e.signals.emulator,
                1 => e.signals.block24 == block24,
                2 => Some(e.tag) == tag_id,
                _ => true,
            };
            let a = fast.filter_installs(n, pred);
            let b = oracle.filter_installs(n, pred);
            prop_assert_eq!(a, b, "filter_installs removals at step {}", i);
        }
        _ => {
            let mut fast_rng = SeedFork::new(seed).rng();
            let mut oracle_rng = SeedFork::new(seed).rng();
            let a = sweep(fast, cfg, &mut fast_rng);
            let b = full_scan_sweep(oracle, cfg, &mut oracle_rng);
            prop_assert_eq!(a, b, "sweep removals at step {}", i);
            prop_assert_eq!(
                fast_rng.gen::<u64>(),
                oracle_rng.gen::<u64>(),
                "sweep consumed a different number of draws at step {}",
                i
            );
        }
    }
    prop_assert_eq!(fast.public_installs(), oracle.public_installs());
    prop_assert_eq!(fast.filtered_installs(), oracle.filtered_installs());
    let recount = fast
        .install_events()
        .iter()
        .filter(|e| !e.filtered && e.signals.is_suspicious())
        .count() as u64;
    prop_assert_eq!(fast.unfiltered_suspicious(), recount);
    Ok(())
}

fn filtered_flags(l: &EngagementLedger) -> Vec<bool> {
    l.install_events().iter().map(|e| e.filtered).collect()
}

proptest! {
    /// Incremental and full-scan sweeps agree on every step of random
    /// install / filter / sweep sequences, for every profile in
    /// {default, strict, disabled} × lockstep threshold {0, 1, 2, 12}.
    #[test]
    fn incremental_sweep_matches_full_scan(
        base in 0u8..3,
        threshold in 0usize..4,
        variant in 0u8..4,
        steps in prop::collection::vec(
            (0u8..10, 0u32..16, (any::<bool>(), any::<bool>()), (0usize..4, 0u64..40), any::<u64>()),
            0..250,
        ),
    ) {
        let cfg = config(base, threshold, variant);
        let mut fast = EngagementLedger::new();
        let mut oracle = EngagementLedger::new();
        for (i, s) in steps.into_iter().enumerate() {
            step(&mut fast, &mut oracle, &cfg, i, s)?;
        }
        prop_assert_eq!(filtered_flags(&fast), filtered_flags(&oracle), "per-event filtered flags");
    }
}

/// The grid above, exhaustively: every profile × threshold × variant
/// over one long burst-heavy sequence, so acting sweeps find bursts and
/// implicated campaigns to remove.
#[test]
fn every_profile_agrees_on_a_farm_campaign() {
    for base in 0..3 {
        for threshold in 0..THRESHOLDS.len() {
            for variant in 0..4 {
                let cfg = config(base, threshold, variant);
                let mut fast = EngagementLedger::new();
                let mut oracle = EngagementLedger::new();
                let mut seeds = SeedFork::new(99).rng();
                for i in 0..600usize {
                    // Farm bursts of 15 on one /24, bots every 7th
                    // install, a sweep every 25 steps.
                    let kind = if i % 25 == 24 { 9 } else { 0 };
                    let block = if i % 3 == 0 { 8 } else { (i / 15 % 8) as u32 };
                    let s = (
                        kind,
                        block,
                        (i % 7 == 0, i % 11 == 0),
                        (i % 4, 0),
                        seeds.gen(),
                    );
                    step(&mut fast, &mut oracle, &cfg, i, s).unwrap_or_else(|e| {
                        panic!("profile ({base}, {threshold}, {variant}): {e}")
                    });
                }
                assert_eq!(filtered_flags(&fast), filtered_flags(&oracle));
                let always_acts = base == 1 || (base == 0 && (variant == 1 || variant == 2));
                if always_acts {
                    assert!(
                        fast.filtered_installs() > 0,
                        "({base}, {threshold}, {variant}) never removed"
                    );
                }
            }
        }
    }
}
