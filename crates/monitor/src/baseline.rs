//! Reference `String`-keyed offer ingest, kept for benchmarking.
//!
//! This is the index maintenance `Dataset::add_offers` performed
//! before the symbol rewrite, preserved verbatim — four owned-`String`
//! tree indices, a `String`-keyed observation map, and the original
//! `contains`-then-`insert` double probes. Nothing in the pipeline
//! uses it; it exists so the `substrates/dataset_intern` benches
//! measure the interned columnar ingest against the exact shape it
//! replaced (the same role `parse_wall_tree` plays for the streaming
//! wall parser).

use crate::parsers::ScrapedOffer;
use iiscope_types::{IipId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug)]
struct Agg {
    iips: BTreeSet<IipId>,
    first_seen: SimTime,
    last_seen: SimTime,
    keys: BTreeSet<(IipId, u64)>,
}

/// The pre-interning offer store (ingest surface only).
#[derive(Debug, Default)]
pub struct StringIndexedIngest {
    offers: Vec<ScrapedOffer>,
    seen_offer_keys: BTreeSet<(IipId, u64)>,
    unique_offer_rows: Vec<usize>,
    descriptions: BTreeSet<String>,
    packages: BTreeSet<String>,
    packages_by_iip: BTreeMap<IipId, BTreeSet<String>>,
    packages_by_class: [BTreeSet<String>; 2],
    observations: BTreeMap<String, Agg>,
}

impl StringIndexedIngest {
    /// Empty store.
    pub fn new() -> StringIndexedIngest {
        StringIndexedIngest::default()
    }

    /// The pre-interning `Dataset::add_offers`, double probes and
    /// per-index key clones included.
    pub fn add_offers(&mut self, offers: impl IntoIterator<Item = ScrapedOffer>) {
        for o in offers {
            let row = self.offers.len();
            if !self.seen_offer_keys.contains(&(o.iip, o.raw.offer_key)) {
                self.seen_offer_keys.insert((o.iip, o.raw.offer_key));
                self.unique_offer_rows.push(row);
            }
            if !self.descriptions.contains(&o.raw.description) {
                self.descriptions.insert(o.raw.description.clone());
            }
            if !self.packages.contains(&o.raw.package) {
                self.packages.insert(o.raw.package.clone());
            }
            self.packages_by_iip
                .entry(o.iip)
                .or_default()
                .insert(o.raw.package.clone());
            self.packages_by_class[usize::from(o.iip.is_vetted())].insert(o.raw.package.clone());
            let agg = self
                .observations
                .entry(o.raw.package.clone())
                .or_insert_with(|| Agg {
                    iips: BTreeSet::new(),
                    first_seen: o.seen_at,
                    last_seen: o.seen_at,
                    keys: BTreeSet::new(),
                });
            agg.iips.insert(o.iip);
            agg.first_seen = agg.first_seen.min(o.seen_at);
            agg.last_seen = agg.last_seen.max(o.seen_at);
            agg.keys.insert((o.iip, o.raw.offer_key));
            self.offers.push(o);
        }
    }

    /// Raw rows ingested.
    pub fn len(&self) -> usize {
        self.offers.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }

    /// Deduplicated offer count.
    pub fn unique_offers(&self) -> usize {
        self.unique_offer_rows.len()
    }

    /// Distinct advertised packages.
    pub fn advertised_packages(&self) -> usize {
        self.packages.len()
    }

    /// Distinct offer descriptions.
    pub fn unique_descriptions(&self) -> usize {
        self.descriptions.len()
    }

    /// Per-package observation count.
    pub fn observations(&self) -> usize {
        self.observations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::parsers::{RawOffer, RewardValue};
    use iiscope_types::Country;

    /// The baseline must agree with the interned `Dataset` on every
    /// summary count — it is only a performance reference, never a
    /// second source of truth.
    #[test]
    fn baseline_agrees_with_the_interned_dataset() {
        let offers: Vec<ScrapedOffer> = (0..200)
            .map(|i| ScrapedOffer {
                iip: IipId::ALL[i % IipId::ALL.len()],
                raw: RawOffer {
                    offer_key: (i as u64) % 60,
                    description: format!("Install and reach level {}", i % 9),
                    reward: RewardValue::Cents(5),
                    package: format!("com.adv.app{}", i % 37),
                    store_url: String::new(),
                },
                seen_at: SimTime::from_days((i as u64) % 14),
                affiliate: "com.cash.app".into(),
                vantage: Country::Us,
            })
            .collect();
        let mut reference = StringIndexedIngest::new();
        reference.add_offers(offers.iter().cloned());
        let mut interned = Dataset::new();
        interned.add_offers(offers);
        assert_eq!(reference.len(), interned.offers().len());
        assert!(!reference.is_empty());
        assert_eq!(reference.unique_offers(), interned.unique_offers().len());
        assert_eq!(
            reference.advertised_packages(),
            interned.advertised_packages().len()
        );
        assert_eq!(
            reference.unique_descriptions(),
            interned.unique_descriptions().len()
        );
        assert_eq!(reference.observations(), interned.observations().len());
    }
}
