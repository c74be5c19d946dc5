//! Impact detectors over crawl timelines (§4.3.1, §5.2).
//!
//! All three detectors work on the *public* profile series the crawler
//! produced — binned install counts, chart membership — never on
//! ground-truth store internals, mirroring the paper's observational
//! position.

use iiscope_monitor::{Dataset, ProfileFields};
use iiscope_types::Sym;

/// Whether an app's public install count increased between the first
/// and last snapshot within `[from_day, to_day]`.
///
/// §4.3.1: "we check whether or not an app's install count increases
/// by the end of the incentivized install campaign as compared to the
/// start of the campaign." With binned counts, "increase" means a bin
/// boundary was crossed upward.
pub fn install_increased(series: &[ProfileFields<'_>], from_day: u64, to_day: u64) -> Option<bool> {
    let mut window = series
        .iter()
        .filter(|p| p.day >= from_day && p.day <= to_day);
    let first = window.next()?;
    let last = window.next_back().unwrap_or(first);
    Some(last.min_installs > first.min_installs)
}

/// Whether an app's public install count *decreased* at any point in
/// the series — §5.2's enforcement signal ("a decrease would be an
/// indicator that Google Play Store has identified and removed
/// incentivized installs").
pub fn install_decreased(series: &[ProfileFields<'_>]) -> bool {
    series
        .windows(2)
        .any(|w| w[1].min_installs < w[0].min_installs)
}

/// Whether an app appears in any top chart within `[from_day, to_day]`
/// but did **not** appear before `from_day` — §4.3.1's bias filter
/// ("we exclude advertised apps that already appeared in top charts
/// before the start of their campaign").
///
/// Returns `None` when the app must be excluded (pre-campaign chart
/// presence), `Some(appeared)` otherwise.
pub fn chart_appearance(
    dataset: &Dataset,
    package: &str,
    from_day: u64,
    to_day: u64,
) -> Option<bool> {
    let Some(sym) = dataset.pkg_sym(package) else {
        // Never observed anywhere: no pre-campaign presence, no
        // appearance.
        return Some(false);
    };
    chart_appearance_sym(dataset, sym, from_day, to_day)
}

/// Symbol-keyed [`chart_appearance`] — the experiment tables join on
/// interned package symbols.
pub fn chart_appearance_sym(
    dataset: &Dataset,
    package: Sym,
    from_day: u64,
    to_day: u64,
) -> Option<bool> {
    let appeared_before = from_day > 0 && dataset.in_any_chart_sym(package, 0, from_day - 1);
    if appeared_before {
        return None;
    }
    Some(dataset.in_any_chart_sym(package, from_day, to_day))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_monitor::{ChartSnapshot, ProfileSnapshot};

    fn snap(day: u64, installs: u64) -> ProfileSnapshot {
        ProfileSnapshot {
            day,
            package: "com.x.y".into(),
            title: "X".into(),
            genre_id: "TOOLS".into(),
            released_day: 0,
            min_installs: installs,
            developer_id: 1,
            developer_name: "d".into(),
            developer_country: "US".into(),
            developer_email: "e".into(),
            developer_website: String::new(),
            rating: 0.0,
            rating_count: 0,
        }
    }

    #[test]
    fn increase_detection_respects_window() {
        let s = [snap(10, 100), snap(12, 100), snap(14, 500), snap(30, 1000)];
        let refs: Vec<ProfileFields> = s.iter().map(ProfileSnapshot::fields).collect();
        assert_eq!(install_increased(&refs, 10, 14), Some(true));
        assert_eq!(install_increased(&refs, 10, 12), Some(false));
        assert_eq!(install_increased(&refs, 50, 60), None, "empty window");
    }

    #[test]
    fn decrease_detection() {
        let s = [snap(10, 1000), snap(12, 1000), snap(14, 500)];
        let refs: Vec<ProfileFields> = s.iter().map(ProfileSnapshot::fields).collect();
        assert!(install_decreased(&refs));
        let s = [snap(10, 100), snap(12, 500)];
        let refs: Vec<ProfileFields> = s.iter().map(ProfileSnapshot::fields).collect();
        assert!(!install_decreased(&refs));
    }

    #[test]
    fn chart_appearance_with_exclusion() {
        let mut d = Dataset::new();
        d.add_chart(ChartSnapshot {
            day: 5,
            chart: "topselling_free",
            entries: vec![("com.pre.existing".into(), 9)],
        });
        d.add_chart(ChartSnapshot {
            day: 15,
            chart: "topselling_free",
            entries: vec![("com.pre.existing".into(), 8), ("com.fresh.app".into(), 50)],
        });
        // Pre-existing chart presence → excluded.
        assert_eq!(chart_appearance(&d, "com.pre.existing", 10, 20), None);
        // Fresh appearance inside the window.
        assert_eq!(chart_appearance(&d, "com.fresh.app", 10, 20), Some(true));
        // Never charted.
        assert_eq!(chart_appearance(&d, "com.never", 10, 20), Some(false));
        // from_day=0 edge: nothing can be "before".
        assert_eq!(chart_appearance(&d, "com.pre.existing", 0, 20), Some(true));
    }
}
