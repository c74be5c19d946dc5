//! Incrementally-maintained aggregates for the hot report tables.
//!
//! All 16 experiment tables historically recomputed from the full
//! columnar dataset after the run; at 100× scale that post-run pass is
//! a dominant serial cost and drags cold spilled [`RowLog`] segments
//! back through the LRU (Figure 5 alone rescanned the entire chart log
//! once per chart day). [`ReportAggregates`] is the streaming
//! alternative: once per sim day the wild-study loop folds the day's
//! *new* offer and chart rows — while they are still resident — into
//! Sym-keyed accumulators, so the final report pass over the hot
//! tables (4–8, figures 5/6, monetization) renders from O(aggregate)
//! state instead of re-scanning O(run history) rows.
//!
//! [`RowLog`]: iiscope_monitor::RowLog
//!
//! Contracts the rest of the workspace leans on:
//!
//! * **Pure fold.** The aggregate state is a pure function of (dataset
//!   arrival order, affiliate rate book). Folding day-by-day, folding
//!   everything in one call, or re-folding a restored dataset all
//!   produce identical state — which is what lets a v2 snapshot
//!   (no aggregate section) resume into an incremental run.
//! * **Byte parity.** Every incremental table constructor produces
//!   output byte-identical to its batch counterpart; the batch path is
//!   kept as the oracle and tier-1 tests assert equality at any worker
//!   count, shard count and memory budget.
//! * **Checkpointable.** The state serializes into the snapshot's
//!   AGGS section (format v3, additive) through the same
//!   [`iiscope_types::frame`] codec as everything else.

use iiscope_analysis::classify::is_arbitrage;
use iiscope_analysis::{classify_description, OfferType};
use iiscope_monitor::{Dataset, RateBook};
use iiscope_playstore::ChartKind;
use iiscope_types::frame::{Dec, Enc, FrameError};
use iiscope_types::{IipId, Sym, SymSet, Usd};
use std::collections::BTreeMap;

/// One deduplicated offer, reduced to the columns the hot tables
/// consume: its package symbol, platform, offer classification and
/// normalized payout. Strings are gone — classification and rate-book
/// normalization happened once, at fold time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestOffer {
    /// Advertised package symbol.
    pub pkg: Sym,
    /// Platform the offer ran on.
    pub iip: IipId,
    /// Whether the description classified as a no-activity offer.
    pub no_activity: bool,
    /// Whether the description used arbitrage phrasing.
    pub arbitrage: bool,
    /// Rate-book-normalized payout (`None` for unknown affiliates).
    pub usd: Option<Usd>,
}

/// Streaming accumulators for the hot report tables, folded once per
/// sim day from that day's ingest deltas. See the module docs for the
/// fold/parity/checkpoint contracts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportAggregates {
    /// Deduplicated offers consumed so far (next fold starts here).
    unique_cursor: usize,
    /// Chart snapshots consumed so far.
    charts_cursor: usize,
    // Columnar digest of the deduplicated offer stream, arrival order.
    pkg: Vec<Sym>,
    iip: Vec<IipId>,
    no_activity: Vec<bool>,
    arbitrage: Vec<bool>,
    usd: Vec<Option<Usd>>,
    /// Chart size (entry count) per chart per crawl day — what Figure 5
    /// used to rescan the whole chart log for, once per chart day.
    chart_sizes: BTreeMap<&'static str, BTreeMap<u64, usize>>,
}

impl ReportAggregates {
    /// Empty aggregate state (cursors at the start of the logs).
    pub fn new() -> ReportAggregates {
        ReportAggregates::default()
    }

    /// Folds every dataset row appended since the previous fold:
    /// classifies and normalizes the new deduplicated offers, and
    /// records the new chart snapshots' sizes. Reading only the delta
    /// keeps the pass off the spill path — the deduplicated rows are
    /// pinned resident, and a chart cursor past the spilled prefix
    /// streams from resident segments only.
    pub fn fold_day(&mut self, ds: &Dataset, book: &RateBook) {
        for (o, pkg, _) in ds.unique_offers_with_syms_from(self.unique_cursor) {
            self.pkg.push(pkg);
            self.iip.push(o.iip);
            self.no_activity
                .push(classify_description(o.description) == OfferType::NoActivity);
            self.arbitrage.push(is_arbitrage(o.description));
            self.usd.push(book.to_usd(o.reward, o.affiliate));
        }
        self.unique_cursor = ds.unique_offer_count();
        for snap in ds.charts_from(self.charts_cursor) {
            // First snapshot of a (chart, day) wins, matching the
            // batch path's `.find()` semantics.
            self.chart_sizes
                .entry(snap.chart)
                .or_default()
                .entry(snap.day)
                .or_insert(snap.entries().len());
        }
        self.charts_cursor = ds.charts().len();
    }

    /// Number of deduplicated offers folded so far.
    pub fn len(&self) -> usize {
        self.pkg.len()
    }

    /// True when nothing was folded yet.
    pub fn is_empty(&self) -> bool {
        self.pkg.is_empty()
    }

    /// Whether the fold has consumed every row the dataset currently
    /// holds — what the incremental report asserts before trusting the
    /// digest over a rescan.
    pub fn covers(&self, ds: &Dataset) -> bool {
        self.unique_cursor == ds.unique_offer_count() && self.charts_cursor == ds.charts().len()
    }

    /// The folded offer digest, arrival order.
    pub fn offers(&self) -> impl Iterator<Item = DigestOffer> + '_ {
        (0..self.pkg.len()).map(|i| DigestOffer {
            pkg: self.pkg[i],
            iip: self.iip[i],
            no_activity: self.no_activity[i],
            arbitrage: self.arbitrage[i],
            usd: self.usd[i],
        })
    }

    /// Entry count of `chart` on `day` (0 when that chart was not
    /// crawled that day).
    pub fn chart_size(&self, chart: &str, day: u64) -> usize {
        self.chart_sizes
            .get(chart)
            .and_then(|days| days.get(&day))
            .copied()
            .unwrap_or(0)
    }

    /// Packages with at least one activity offer.
    pub fn activity_syms(&self) -> SymSet {
        let mut set = SymSet::default();
        for i in 0..self.pkg.len() {
            if !self.no_activity[i] {
                set.insert(self.pkg[i]);
            }
        }
        set
    }

    /// Packages with at least one no-activity offer.
    pub fn no_activity_syms(&self) -> SymSet {
        let mut set = SymSet::default();
        for i in 0..self.pkg.len() {
            if self.no_activity[i] {
                set.insert(self.pkg[i]);
            }
        }
        set
    }

    /// Packages with at least one arbitrage-style offer.
    pub fn arbitrage_syms(&self) -> SymSet {
        let mut set = SymSet::default();
        for i in 0..self.pkg.len() {
            if self.arbitrage[i] {
                set.insert(self.pkg[i]);
            }
        }
        set
    }

    /// Serializes the aggregate state (the snapshot's AGGS section
    /// body).
    pub fn encode(&self, e: &mut Enc) {
        e.u64(self.unique_cursor as u64)
            .u64(self.charts_cursor as u64);
        e.u64(self.pkg.len() as u64);
        for i in 0..self.pkg.len() {
            e.u32(self.pkg[i].0).u8(self.iip[i] as u8);
            let flags = u8::from(self.no_activity[i])
                | (u8::from(self.arbitrage[i]) << 1)
                | (u8::from(self.usd[i].is_some()) << 2);
            e.u8(flags);
            if let Some(usd) = self.usd[i] {
                e.i64(usd.micros());
            }
        }
        e.u64(self.chart_sizes.len() as u64);
        for (chart, days) in &self.chart_sizes {
            e.str(chart).u64(days.len() as u64);
            for (day, size) in days {
                e.u64(*day).u64(*size as u64);
            }
        }
    }

    /// Deserializes and validates aggregate state. Total: corrupt
    /// bytes return `Err`, never panic.
    pub fn decode(d: &mut Dec) -> Result<ReportAggregates, FrameError> {
        let unique_cursor = d.u64()? as usize;
        let charts_cursor = d.u64()? as usize;
        let n = d.u64()? as usize;
        let mut aggs = ReportAggregates {
            unique_cursor,
            charts_cursor,
            ..ReportAggregates::default()
        };
        for _ in 0..n {
            aggs.pkg.push(Sym(d.u32()?));
            let iip = IipId::ALL
                .get(d.u8()? as usize)
                .copied()
                .ok_or(FrameError::Codec("aggregate IIP index out of range"))?;
            aggs.iip.push(iip);
            let flags = d.u8()?;
            if flags & !0b111 != 0 {
                return Err(FrameError::Codec("unknown aggregate offer flags"));
            }
            aggs.no_activity.push(flags & 1 != 0);
            aggs.arbitrage.push(flags & 2 != 0);
            aggs.usd.push(if flags & 4 != 0 {
                Some(Usd::from_micros(d.i64()?))
            } else {
                None
            });
        }
        let n_charts = d.u64()? as usize;
        for _ in 0..n_charts {
            let id = d.str()?;
            let chart = ChartKind::ALL
                .iter()
                .find(|k| k.id() == id)
                .map(|k| k.id())
                .ok_or(FrameError::Codec("unknown aggregate chart id"))?;
            let n_days = d.u64()? as usize;
            let days = aggs.chart_sizes.entry(chart).or_default();
            for _ in 0..n_days {
                let day = d.u64()?;
                days.insert(day, d.u64()? as usize);
            }
        }
        Ok(aggs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_monitor::ChartSnapshot;
    use iiscope_types::{Country, SimTime};

    fn offer(iip: IipId, key: u64, pkg: &str, day: u64, desc: &str) -> ScrapedOffer {
        ScrapedOffer {
            iip,
            raw: RawOffer {
                offer_key: key,
                description: desc.into(),
                reward: RewardValue::Cents(25),
                package: pkg.into(),
                store_url: format!("https://play.iiscope/store/apps/details?id={pkg}"),
            },
            seen_at: SimTime::from_days(day),
            affiliate: "com.cash.app".into(),
            vantage: Country::Us,
        }
    }

    fn chart(day: u64, entries: usize) -> ChartSnapshot {
        ChartSnapshot {
            day,
            chart: ChartKind::ALL[0].id(),
            entries: (0..entries).map(|r| (format!("com.app.{r}"), r)).collect(),
        }
    }

    fn book() -> RateBook {
        RateBook::from_catalog(&iiscope_devices::AffiliateApp::table2_catalog())
    }

    #[test]
    fn day_by_day_fold_equals_one_shot_fold() {
        let book = book();
        let mut ds = Dataset::new();
        let mut daily = ReportAggregates::new();
        for day in 0..6u64 {
            ds.add_offers([
                offer(
                    IipId::Fyber,
                    day * 2,
                    "com.a.one",
                    day,
                    "Install and register",
                ),
                offer(IipId::RankApp, day * 2 + 1, "com.b.two", day, "Install"),
                // Re-observation: must not re-enter the digest.
                offer(IipId::Fyber, 0, "com.a.one", day, "Install and register"),
            ]);
            ds.add_chart(chart(day, 3 + day as usize));
            daily.fold_day(&ds, &book);
        }
        let mut one_shot = ReportAggregates::new();
        one_shot.fold_day(&ds, &book);
        assert_eq!(daily, one_shot, "fold must be order-insensitive");
        assert!(daily.covers(&ds));
        assert_eq!(daily.len(), ds.unique_offer_count());
        assert_eq!(daily.chart_size(ChartKind::ALL[0].id(), 2), 5);
        assert_eq!(daily.chart_size(ChartKind::ALL[0].id(), 99), 0);
        assert_eq!(daily.chart_size("no_such_chart", 2), 0);
    }

    #[test]
    fn digest_matches_a_batch_rescan() {
        let book = book();
        let mut ds = Dataset::new();
        ds.add_offers([
            offer(
                IipId::Fyber,
                1,
                "com.a.one",
                1,
                "Install and register an account",
            ),
            offer(IipId::RankApp, 2, "com.b.two", 1, "Install"),
            offer(
                IipId::AdGem,
                3,
                "com.c.three",
                2,
                "Install and keep it for 3 days",
            ),
        ]);
        let mut aggs = ReportAggregates::new();
        aggs.fold_day(&ds, &book);
        let digest: Vec<DigestOffer> = aggs.offers().collect();
        let rescan: Vec<DigestOffer> = ds
            .unique_offers_with_syms_from(0)
            .map(|(o, pkg, _)| DigestOffer {
                pkg,
                iip: o.iip,
                no_activity: classify_description(o.description) == OfferType::NoActivity,
                arbitrage: is_arbitrage(o.description),
                usd: book.to_usd(o.reward, o.affiliate),
            })
            .collect();
        assert_eq!(digest, rescan);
        // Classification sets partition consistently.
        let activity = aggs.activity_syms();
        let no_activity = aggs.no_activity_syms();
        for d in &digest {
            assert!(activity.contains(d.pkg) || no_activity.contains(d.pkg));
        }
    }

    #[test]
    fn aggregate_state_round_trips_the_codec() {
        let book = book();
        let mut ds = Dataset::new();
        ds.add_offers([
            offer(IipId::Fyber, 1, "com.a.one", 1, "Install and register"),
            offer(IipId::OfferToro, 9, "com.z.last", 4, "Install"),
        ]);
        // Point rewards through an unknown affiliate keep usd = None
        // in the digest (Cents/Usd rewards never need the rate book).
        let mut unknown = offer(IipId::AdGem, 5, "com.u.unknown", 2, "Install");
        unknown.raw.reward = RewardValue::Points(500);
        unknown.affiliate = "com.not.registered".into();
        ds.add_offers([unknown]);
        ds.add_chart(chart(2, 4));
        let mut aggs = ReportAggregates::new();
        aggs.fold_day(&ds, &book);
        assert!(aggs.offers().any(|o| o.usd.is_none()));

        let mut e = Enc::new();
        aggs.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = ReportAggregates::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, aggs);

        // Garbage flags are rejected, not misread.
        let mut corrupt = Enc::new();
        corrupt.u64(0).u64(0).u64(1).u32(0).u8(0).u8(0xF0);
        let cbytes = corrupt.into_bytes();
        assert!(ReportAggregates::decode(&mut Dec::new(&cbytes)).is_err());
    }
}
