//! Play-side policy enforcement: the install-filtering pipeline.
//!
//! §5.2 measures enforcement indirectly: a *decrease* in a public
//! install count means Google "identified and removed incentivized
//! installs". The paper observes essentially no decreases for baseline
//! and vetted-IIP apps and decreases for only ~2% of unvetted-IIP apps
//! — enforcement exists but is lax. The mechanism here explains why:
//!
//! * crowd-worker installs on real phones are indistinguishable from
//!   organic users ("these installs and user actions resemble that of
//!   authentic organic users", §1), so the filter can only act on hard
//!   signals — emulator builds and datacenter ASNs;
//! * those hard signals are a minority of incentivized installs, so
//!   even a confident sweep rarely crosses a bin boundary downward.
//!
//! The optional *lockstep* detector (flagging bursts of installs from
//! one /24) implements the future-work direction the paper proposes
//! ("detecting the lockstep behavior of users", §5.2) and is exercised
//! by the enforcement ablation bench.

use crate::engagement::{EngagementLedger, InstallEvent, ORGANIC_TAG};
use iiscope_types::rng::chance;
use rand::Rng;

/// Tuning of the enforcement sweep.
#[derive(Debug, Clone)]
pub struct EnforcementConfig {
    /// Master switch.
    pub enabled: bool,
    /// Fraction of hard-flagged installs removed when a sweep fires.
    pub detection_rate: f64,
    /// Minimum hard-flagged installs before an app is even considered.
    pub min_flagged: u64,
    /// Probability per sweep that a considered app is actioned.
    pub action_prob: f64,
    /// Future-work knob: also flag lockstep /24 bursts.
    pub detect_lockstep: bool,
    /// Installs from one /24 needed to call it lockstep.
    pub lockstep_threshold: u64,
    /// Flagged installs a campaign tag must carry before removal
    /// cascades to the whole tag (a couple of stray emulators on an
    /// otherwise-clean campaign do not condemn it).
    pub tag_implication_min: u64,
}

impl Default for EnforcementConfig {
    /// The calibrated "lax" profile that reproduces §5.2's shape:
    /// decreases are possible but rare (per daily sweep), and only
    /// campaigns with enough correlated signal — device-farm bursts —
    /// are ever eligible. Because removals cascade to the flagged
    /// installs' campaign tags, an actioned app loses most of a
    /// campaign's installs at once, which is what makes the 1,000→500
    /// bin drop of §5.2 observable at all.
    fn default() -> EnforcementConfig {
        EnforcementConfig {
            enabled: true,
            detection_rate: 0.85,
            min_flagged: 16,
            action_prob: 0.012,
            detect_lockstep: true,
            lockstep_threshold: 12,
            tag_implication_min: 8,
        }
    }
}

impl EnforcementConfig {
    /// Enforcement fully off.
    pub fn disabled() -> EnforcementConfig {
        EnforcementConfig {
            enabled: false,
            ..EnforcementConfig::default()
        }
    }

    /// An aggressive profile for the ablation bench (always acts,
    /// lockstep detection on).
    pub fn strict() -> EnforcementConfig {
        EnforcementConfig {
            enabled: true,
            detection_rate: 1.0,
            min_flagged: 5,
            action_prob: 1.0,
            detect_lockstep: true,
            lockstep_threshold: 10,
            tag_implication_min: 1,
        }
    }
}

/// Runs one sweep over an app's ledger; returns how many installs were
/// removed from the public count.
///
/// When a sweep fires, removal cascades from the flagged installs to
/// every install sharing their campaign attribution tags — the "we
/// identified this incentivized campaign, purge it" model. Organic
/// installs (empty tag) are only removed when individually flagged.
///
/// Whether the app is considered comes from the ledger's running
/// counts, so a sweep that does not fire touches no install events;
/// only an actioned sweep scans them. The flagged count is the same
/// number a scan of every unfiltered install would give, and the
/// action draw happens under the same condition, so the RNG stream is
/// the one a full scan consumes.
pub fn sweep(ledger: &mut EngagementLedger, cfg: &EnforcementConfig, rng: &mut impl Rng) -> u64 {
    if !cfg.enabled {
        return 0;
    }
    // Hard signals, plus the optional lockstep term: installs in /24
    // blocks at or above the burst threshold. At a threshold of one
    // or less every block with an unfiltered install qualifies.
    let every_block = cfg.lockstep_threshold <= 1;
    let lockstep_blocks: Vec<u32> = if cfg.detect_lockstep && !every_block {
        ledger
            .shared_blocks()
            .filter(|b| ledger.unfiltered_in_block(*b) >= cfg.lockstep_threshold)
            .collect()
    } else {
        Vec::new()
    };
    let lockstep_installs: u64 = match (cfg.detect_lockstep, every_block) {
        (false, _) => 0,
        (true, true) => ledger.unfiltered_installs(),
        (true, false) => lockstep_blocks
            .iter()
            .map(|b| ledger.unfiltered_in_block(*b))
            .sum(),
    };
    let flagged = ledger.unfiltered_suspicious() + lockstep_installs;

    if flagged < cfg.min_flagged || !chance(rng, cfg.action_prob) {
        return 0;
    }

    // `lockstep_blocks` is ascending (the shared-block set is ordered).
    let in_lockstep = |block: u32| {
        cfg.detect_lockstep && (every_block || lockstep_blocks.binary_search(&block).is_ok())
    };
    let flagged_install =
        |e: &InstallEvent| e.signals.is_suspicious() || in_lockstep(e.signals.block24);

    // Campaign tags implicated by the flagged installs — but only
    // tags carrying a meaningful amount of flagged traffic.
    let mut tag_counts = vec![0u64; ledger.tag_count() as usize + 1];
    for e in ledger
        .install_events()
        .iter()
        .filter(|e| !e.filtered && e.tag != ORGANIC_TAG && flagged_install(e))
    {
        tag_counts[e.tag as usize] += 1;
    }
    let implicated: Vec<bool> = tag_counts
        .iter()
        .map(|n| *n > 0 && *n >= cfg.tag_implication_min)
        .collect();

    // Everything matching an implicated tag, a flagged block, or a
    // hard signal is in scope; remove `detection_rate` of it.
    let in_scope = |e: &InstallEvent| flagged_install(e) || implicated[e.tag as usize];
    let to_remove = (ledger
        .install_events()
        .iter()
        .filter(|e| !e.filtered && in_scope(e))
        .count() as f64
        * cfg.detection_rate)
        .ceil() as u64;
    ledger.filter_installs(to_remove, in_scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engagement::InstallSignals;
    use iiscope_types::{SeedFork, SimTime};

    fn ledger_with(clean: u64, emulator: u64, farm_block: Option<(u32, u64)>) -> EngagementLedger {
        let mut l = EngagementLedger::new();
        for i in 0..clean {
            l.record_install(SimTime::EPOCH, InstallSignals::clean(1000 + i as u32), "");
        }
        for _ in 0..emulator {
            l.record_install(
                SimTime::EPOCH,
                InstallSignals {
                    emulator: true,
                    rooted: false,
                    datacenter_asn: false,
                    block24: 1,
                },
                "iip",
            );
        }
        if let Some((block, n)) = farm_block {
            for _ in 0..n {
                let mut s = InstallSignals::clean(block);
                s.rooted = true;
                l.record_install(SimTime::EPOCH, s, "iip");
            }
        }
        l
    }

    #[test]
    fn disabled_never_removes() {
        let mut l = ledger_with(10, 100, None);
        let mut rng = SeedFork::new(1).rng();
        assert_eq!(sweep(&mut l, &EnforcementConfig::disabled(), &mut rng), 0);
        assert_eq!(l.public_installs(), 110);
    }

    #[test]
    fn strict_removes_hard_flagged_only() {
        let mut l = ledger_with(50, 30, None);
        let mut rng = SeedFork::new(2).rng();
        let removed = sweep(&mut l, &EnforcementConfig::strict(), &mut rng);
        assert_eq!(removed, 30, "all emulator installs go");
        assert_eq!(l.public_installs(), 50, "clean installs untouched");
    }

    #[test]
    fn below_threshold_never_actioned() {
        let mut l = ledger_with(100, 3, None);
        let mut rng = SeedFork::new(3).rng();
        let cfg = EnforcementConfig {
            action_prob: 1.0,
            ..EnforcementConfig::default()
        };
        assert_eq!(sweep(&mut l, &cfg, &mut rng), 0, "3 < min_flagged=25");
    }

    #[test]
    fn lockstep_detection_catches_device_farms() {
        // A farm: 20 rooted real-device installs behind one /24 — the
        // §3.2 observation. Hard signals alone miss it...
        let mut l = ledger_with(10, 0, Some((42, 20)));
        let mut rng = SeedFork::new(4).rng();
        let mut cfg = EnforcementConfig::strict();
        cfg.detect_lockstep = false;
        assert_eq!(
            sweep(&mut l, &cfg, &mut rng),
            0,
            "invisible without lockstep"
        );
        // ...but the lockstep detector flags the block.
        let mut l = ledger_with(10, 0, Some((42, 20)));
        let removed = sweep(&mut l, &EnforcementConfig::strict(), &mut rng);
        assert_eq!(removed, 20);
        assert_eq!(l.public_installs(), 10);
    }

    #[test]
    fn default_profile_is_very_lax_per_sweep() {
        // The default profile sweeps daily; per-sweep action chance is
        // well under 1%, so over 2,000 eligible-app sweeps only a
        // handful fire.
        let mut rng = SeedFork::new(5).rng();
        let mut actioned = 0;
        for _ in 0..2_000 {
            let mut l = ledger_with(100, 40, None);
            if sweep(&mut l, &EnforcementConfig::default(), &mut rng) > 0 {
                actioned += 1;
            }
        }
        let rate = actioned as f64 / 2_000.0;
        assert!(rate < 0.05, "default must be lax per sweep, got {rate}");
    }

    #[test]
    fn removal_cascades_to_the_campaign_tag() {
        // 30 emulator installs tagged "iip" plus 200 clean installs
        // with the SAME tag (the rest of the campaign) and 50 organic
        // installs: an actioned sweep purges the campaign, not just
        // the emulators — that cascade is what crosses bin boundaries
        // downward (§5.2's 1,000 → 500).
        let mut l = ledger_with(50, 30, None);
        for i in 0..200u32 {
            let mut s = InstallSignals::clean(5_000 + i);
            s.rooted = false;
            let _ = s;
            l.record_install(SimTime::EPOCH, InstallSignals::clean(5_000 + i), "iip");
        }
        let mut rng = SeedFork::new(6).rng();
        let removed = sweep(&mut l, &EnforcementConfig::strict(), &mut rng);
        // ceil(0.85 × 230) of the in-scope installs… strict uses 1.0.
        assert_eq!(removed, 230, "30 emulators + 200 same-tag installs");
        assert_eq!(l.public_installs(), 50, "organic installs survive");
    }
}
