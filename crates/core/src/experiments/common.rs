//! Helpers shared by the experiment modules. Their tests share one
//! finished run, `crate::run::shared`.

use iiscope_monitor::Dataset;

/// The average campaign duration observed in the dataset, in days —
/// the paper measured 25 and uses it as the baseline observation
/// window (§4.3.1).
pub fn avg_campaign_days(ds: &Dataset) -> u64 {
    let obs = ds.observations();
    if obs.is_empty() {
        return 25;
    }
    let total: u64 = obs.iter().map(|o| o.duration_days()).sum();
    (total / obs.len() as u64).max(1)
}

/// Symbol-side twin of [`avg_campaign_days`]: the same integer result
/// (same campaign set, order-insensitive integer sum) without
/// resolving or name-sorting every package. The incremental report
/// computes this once and shares it across Tables 5–7, where the
/// batch path recomputed the sorted observation list three times.
pub fn avg_campaign_days_sym(ds: &Dataset) -> u64 {
    let (mut total, mut n) = (0u64, 0u64);
    for c in ds.campaigns() {
        total += c.duration_days();
        n += 1;
    }
    total.checked_div(n).map_or(25, |avg| avg.max(1))
}

/// The baseline observation window: starting at the *second* crawl
/// round, for the average campaign duration. Starting one round in
/// leaves a pre-window observation, so the Table 6 exclusion rule
/// ("baseline apps that appeared in top charts at the start of our
/// crawls") has something to test against.
/// Callers compute `avg_days` once via [`avg_campaign_days`] — it is
/// O(dataset) and must not be recomputed per app.
pub fn baseline_window(ds: &Dataset, package: &str, avg_days: u64) -> Option<(u64, u64)> {
    let first = ds.first_profile(package)?.day;
    let mut chart_days = ds.chart_days().iter().copied();
    let (d0, d1) = (chart_days.next(), chart_days.next());
    let start = match (d0, d1) {
        (Some(a), Some(b)) if a >= first => b,
        _ => first + 1,
    };
    Some((start, start + avg_days))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_monitor::RateBook;
    use iiscope_types::{Country, IipId, SimTime, Usd};

    #[test]
    fn offer_usd_normalizes_known_affiliates() {
        let apps = iiscope_devices::AffiliateApp::table2_catalog();
        let book = RateBook::from_catalog(&apps);
        let offer = ScrapedOffer {
            iip: IipId::AyetStudios,
            raw: RawOffer {
                offer_key: 1,
                description: "x".into(),
                reward: RewardValue::Points(2_500),
                package: "a.b".into(),
                store_url: "u".into(),
            },
            seen_at: SimTime::EPOCH,
            affiliate: "com.ayet.cashpirate".into(),
            vantage: Country::Us,
        };
        let usd = |o: &ScrapedOffer| book.to_usd(o.raw.reward, &o.affiliate);
        assert_eq!(usd(&offer), Some(Usd::from_dollars(1)));
        let mut unknown = offer;
        unknown.affiliate = "com.not.registered".into();
        assert_eq!(usd(&unknown), None);
    }

    #[test]
    fn avg_campaign_days_fallback() {
        assert_eq!(avg_campaign_days(&Dataset::new()), 25);
    }
}
