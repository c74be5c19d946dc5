//! The assembled longitudinal dataset and its query surface.
//!
//! §4.1's summary numbers all come from this store: "a total of 2,126
//! offers from 922 unique advertised apps … a total of 1,128 unique
//! offer descriptions". The analyses of §4.2–4.3 query it for campaign
//! windows, per-IIP app sets, profile timelines and chart presence.
//!
//! Queries are backed by **incremental columnar indices** maintained
//! on insert. Package names and offer descriptions are interned into
//! dense [`Sym`]bols at ingest (ingest is sequential — after the
//! parallel milking fan-out merges in plan order — so symbol numbering
//! is a pure function of the seeded simulation at any parallelism).
//! The dedup indices that used to be four `BTreeSet<String>`s per
//! package are bitsets over the symbol space ([`SymSet`]), and the
//! per-package aggregates (`observations`, profile timelines, chart
//! presence) are dense `Vec`s indexed by symbol ([`SymMap`]). Strings
//! are resolved back — and sorted lexicographically where output
//! order demands it — only at the report/CSV boundary, so accessor
//! signatures and values are unchanged from the string-keyed store.
//!
//! Every log holds interned rows and its readers yield borrowed views:
//! 56-byte [`OfferRow`]s read as [`OfferFields`], [`ChartRow`]s of
//! 8-byte (package, rank) entries read as [`ChartView`]s, and the
//! [`ProfileLog`]'s 80-byte rows read as [`ProfileFields`]. Owned
//! crawls ([`ScrapedOffer`], [`ChartSnapshot`], [`ProfileSnapshot`])
//! are ingest inputs only. Spill segments and snapshot sections hold
//! the rows as they are held, symbols as `u32`s, and a snapshot carries
//! every table those symbols resolve through ([`SymTables`]), so a
//! restore decodes rows without hashing a string.

use crate::crawler::{ChartSnapshot, ProfileSnapshot};
use crate::parsers::{RewardValue, ScrapedOffer};
use crate::profiles::{ProfileFields, ProfileLog, ProfileRow};
use crate::spill::{dec_index, dec_sym, LogRow, RowLog, RowLogIter, SpillManifest, SpillStats};
use iiscope_playstore::ChartKind;
use iiscope_types::frame::{Dec, Enc, FrameError};
use iiscope_types::spillfile::SpillError;
use iiscope_types::{Chunked, Country, IipId, Interner, SimTime, Sym, SymMap, SymSet};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Per-app summary of everything the monitor saw.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignObservation {
    /// The advertised package.
    pub package: String,
    /// IIPs the app was seen on.
    pub iips: BTreeSet<IipId>,
    /// First offer sighting.
    pub first_seen: SimTime,
    /// Last offer sighting.
    pub last_seen: SimTime,
    /// Distinct offers ((iip, key) pairs).
    pub offer_count: usize,
}

impl CampaignObservation {
    /// Whether any of the app's offers ran on a vetted platform.
    pub fn on_vetted(&self) -> bool {
        self.iips.iter().any(|i| i.is_vetted())
    }

    /// Whether any of the app's offers ran on an unvetted platform.
    pub fn on_unvetted(&self) -> bool {
        self.iips.iter().any(|i| !i.is_vetted())
    }

    /// Campaign duration in days (Table 5/6 use a 25-day average).
    pub fn duration_days(&self) -> u64 {
        (self.last_seen - self.first_seen).days()
    }
}

/// Borrowed per-app summary for the symbol-keyed join paths — the
/// zero-clone view behind [`Dataset::campaign`]. The experiment
/// tables join on [`Sym`] through this; [`CampaignObservation`] (with
/// its owned `String` and cloned sets) remains the report-boundary
/// shape.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRef<'a> {
    /// The advertised package.
    pub package: Sym,
    /// IIPs the app was seen on.
    pub iips: &'a BTreeSet<IipId>,
    /// First offer sighting.
    pub first_seen: SimTime,
    /// Last offer sighting.
    pub last_seen: SimTime,
    /// Distinct offers ((iip, key) pairs).
    pub offer_count: usize,
}

impl CampaignRef<'_> {
    /// Campaign duration in days.
    pub fn duration_days(&self) -> u64 {
        (self.last_seen - self.first_seen).days()
    }
}

/// Interner sizes for the bench dumps (`BENCH_dataset.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct package symbols.
    pub package_symbols: usize,
    /// Bytes in the package slab.
    pub package_slab_bytes: usize,
    /// Distinct description symbols.
    pub description_symbols: usize,
    /// Bytes in the description slab.
    pub description_slab_bytes: usize,
}

/// The symbol tables a [`Dataset`]'s rows resolve through (opaque:
/// reach them through the dataset's accessors). Offer rows resolve
/// through the first four; profiles and charts share the package
/// space, and profile rows keep their other strings in `profile`. A
/// snapshot's SYMS section carries all five ([`SymTables::encode`]).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SymTables {
    /// Package symbol space (offers ∪ profiles ∪ charts, plus any seed
    /// the world handed to [`Dataset::with_interner`]).
    pub(crate) pkg: Interner,
    /// Description symbol space — interning *is* the dedup index.
    pub(crate) desc: Interner,
    /// Store URLs of offer rows.
    pub(crate) url: Interner,
    /// Affiliate apps of offer rows.
    pub(crate) affiliate: Interner,
    /// Title, genre and developer strings of profile rows.
    pub(crate) profile: Interner,
}

impl SymTables {
    /// Writes every table, each as its length and then its strings in
    /// symbol order: a snapshot's SYMS section body.
    pub fn encode(&self, e: &mut Enc) {
        for table in [
            &self.pkg,
            &self.desc,
            &self.url,
            &self.affiliate,
            &self.profile,
        ] {
            e.u64(table.len() as u64);
            for (_, s) in table.iter() {
                e.str(s);
            }
        }
    }

    /// Reads what [`SymTables::encode`] wrote. Interning each table's
    /// strings in order rebuilds it symbol for symbol; a table that
    /// repeats a string is refused, since it would renumber the rest.
    pub fn decode(d: &mut Dec<'_>) -> Result<SymTables, FrameError> {
        let mut table = || {
            let n = d.u64()?;
            let mut table = Interner::new();
            for _ in 0..n {
                table.intern(d.str()?);
            }
            if table.len() as u64 != n {
                return Err(FrameError::Codec("interner table has duplicate strings"));
            }
            Ok(table)
        };
        Ok(SymTables {
            pkg: table()?,
            desc: table()?,
            url: table()?,
            affiliate: table()?,
            profile: table()?,
        })
    }
}

/// An offer observation with borrowed strings: the one offer view. The
/// dataset's readers yield it, and ingest interns it into an
/// [`OfferRow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferFields<'a> {
    /// Which IIP's wall it was seen on.
    pub iip: IipId,
    /// Wall-scoped offer key.
    pub offer_key: u64,
    /// Offer description as shown on the wall.
    pub description: &'a str,
    /// Reward in the wall's currency.
    pub reward: RewardValue,
    /// Advertised package.
    pub package: &'a str,
    /// Play Store URL of the advertised app.
    pub store_url: &'a str,
    /// When it was seen.
    pub seen_at: SimTime,
    /// Affiliate app whose wall showed it.
    pub affiliate: &'a str,
    /// Vantage point (VPN exit country) it was seen from.
    pub vantage: Country,
}

impl OfferFields<'_> {
    /// Accounted bytes of the owned observation, the struct plus its
    /// four heap strings, as a row keeps them (saturating).
    pub(crate) fn accounted_bytes(self) -> u32 {
        let strings = [
            self.description,
            self.package,
            self.store_url,
            self.affiliate,
        ];
        let bytes =
            std::mem::size_of::<ScrapedOffer>() + strings.map(str::len).iter().sum::<usize>();
        u32::try_from(bytes).unwrap_or(u32::MAX)
    }
}

impl ScrapedOffer {
    /// The observation's fields, borrowed.
    pub fn fields(&self) -> OfferFields<'_> {
        OfferFields {
            iip: self.iip,
            offer_key: self.raw.offer_key,
            description: &self.raw.description,
            reward: self.raw.reward,
            package: &self.raw.package,
            store_url: &self.raw.store_url,
            seen_at: self.seen_at,
            affiliate: &self.affiliate,
            vantage: self.vantage,
        }
    }
}

/// One offer observation as a [`Dataset`]'s offer log keeps it: every
/// string an interned symbol, 56 bytes in all (opaque: readers get
/// [`OfferFields`]). It keeps the owned observation's accounted size,
/// so segment boundaries are the same as for a log of owned rows.
#[derive(Debug, Clone, Copy)]
pub struct OfferRow {
    offer_key: u64,
    seen_at: SimTime,
    reward: RewardValue,
    package: Sym,
    description: Sym,
    store_url: Sym,
    affiliate: Sym,
    accounted: u32,
    iip: IipId,
    vantage: Country,
}

const _: () = assert!(std::mem::size_of::<OfferRow>() <= 56);

impl OfferRow {
    /// The row of observation `o`, whose strings have these symbols.
    fn new(o: OfferFields<'_>, [package, description, store_url, affiliate]: [Sym; 4]) -> OfferRow {
        OfferRow {
            offer_key: o.offer_key,
            seen_at: o.seen_at,
            reward: o.reward,
            package,
            description,
            store_url,
            affiliate,
            accounted: o.accounted_bytes(),
            iip: o.iip,
            vantage: o.vantage,
        }
    }
}

/// An offer row on disk is 43 bytes: key, sighting time, reward tag and
/// value, the four symbols, then the IIP and vantage indices.
impl LogRow for OfferRow {
    type Ctx = SymTables;
    type View<'a> = OfferFields<'a>;

    fn accounted_bytes(&self) -> usize {
        self.accounted as usize
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.offer_key).u64(self.seen_at.secs());
        match self.reward {
            RewardValue::Usd(v) => e.u8(0).f64(v),
            RewardValue::Points(v) => e.u8(1).i64(v),
            RewardValue::Cents(v) => e.u8(2).i64(v),
        };
        for sym in [
            self.package,
            self.description,
            self.store_url,
            self.affiliate,
        ] {
            e.u32(sym.0);
        }
        e.u8(self.iip as u8).u8(self.vantage as u8);
    }

    fn decode(d: &mut Dec<'_>, syms: &SymTables) -> Result<OfferRow, FrameError> {
        let (offer_key, seen_at) = (d.u64()?, SimTime::from_secs(d.u64()?));
        let reward = match d.u8()? {
            0 => RewardValue::Usd(d.f64()?),
            1 => RewardValue::Points(d.i64()?),
            2 => RewardValue::Cents(d.i64()?),
            _ => return Err(FrameError::Codec("unknown reward tag")),
        };
        let mut row = OfferRow {
            offer_key,
            seen_at,
            reward,
            package: dec_sym(d, &syms.pkg)?,
            description: dec_sym(d, &syms.desc)?,
            store_url: dec_sym(d, &syms.url)?,
            affiliate: dec_sym(d, &syms.affiliate)?,
            accounted: 0,
            iip: dec_index(d, &IipId::ALL, "IIP index out of range")?,
            vantage: dec_index(d, &Country::ALL, "country index out of range")?,
        };
        row.accounted = row.view(syms).accounted_bytes();
        Ok(row)
    }

    fn view<'a>(&self, syms: &'a SymTables) -> OfferFields<'a> {
        OfferFields {
            iip: self.iip,
            offer_key: self.offer_key,
            description: syms.desc.resolve(self.description),
            reward: self.reward,
            package: syms.pkg.resolve(self.package),
            store_url: syms.url.resolve(self.store_url),
            seen_at: self.seen_at,
            affiliate: syms.affiliate.resolve(self.affiliate),
            vantage: self.vantage,
        }
    }
}

/// One chart entry as a [`ChartRow`] keeps it: package symbol, rank.
type ChartEntry = (Sym, u32);

/// One chart crawl as a [`Dataset`]'s chart log keeps it: the day, the
/// chart, and its entries as (package symbol, rank) pairs of 8 bytes in
/// one shared allocation (opaque: readers get [`ChartView`]s). It keeps
/// the owned crawl's accounted size, like [`OfferRow`].
#[derive(Debug)]
pub struct ChartRow {
    day: u64,
    chart: &'static str,
    entries: Arc<[ChartEntry]>,
    accounted: u32,
}

/// A chart row on disk is its day, its chart's index, its entry count,
/// then each entry's package symbol and rank.
impl LogRow for ChartRow {
    type Ctx = SymTables;
    type View<'a> = ChartView<'a>;

    fn accounted_bytes(&self) -> usize {
        self.accounted as usize
    }

    fn encode(&self, e: &mut Enc) {
        let kind = ChartKind::ALL.iter().position(|k| k.id() == self.chart);
        let kind = kind.expect("a chart row names a chart kind");
        e.u64(self.day)
            .u8(kind as u8)
            .u64(self.entries.len() as u64);
        for &(pkg, rank) in self.entries.iter() {
            e.u32(pkg.0).u32(rank);
        }
    }

    fn decode(d: &mut Dec<'_>, syms: &SymTables) -> Result<ChartRow, FrameError> {
        let day = d.u64()?;
        let chart = dec_index(d, &ChartKind::ALL, "chart index out of range")?.id();
        let (mut entries, mut package_bytes) = (Vec::new(), 0);
        for _ in 0..d.u64()? {
            let pkg = dec_sym(d, &syms.pkg)?;
            package_bytes += syms.pkg.resolve(pkg).len();
            entries.push((pkg, d.u32()?));
        }
        Ok(ChartRow {
            day,
            chart,
            accounted: chart_accounted(entries.len(), package_bytes),
            entries: entries.into(),
        })
    }

    fn view<'a>(&self, syms: &'a SymTables) -> ChartView<'a> {
        ChartView {
            day: self.day,
            chart: self.chart,
            entries: self.entries.clone(),
            packages: &syms.pkg,
        }
    }
}

/// Accounted bytes of an owned chart crawl of `entries` entries whose
/// package names total `package_bytes` (the struct, plus each entry and
/// its string), saturating at `u32::MAX`.
fn chart_accounted(entries: usize, package_bytes: usize) -> u32 {
    let entry = std::mem::size_of::<(String, usize)>();
    let bytes = std::mem::size_of::<ChartSnapshot>() + entries * entry + package_bytes;
    u32::try_from(bytes).unwrap_or(u32::MAX)
}

/// One chart crawl as the dataset's readers yield it: its entries are
/// package symbols that resolve through the dataset's package table.
/// The view shares the row's entries, so making one never allocates.
#[derive(Clone)]
pub struct ChartView<'a> {
    /// Crawl day.
    pub day: u64,
    /// Chart id.
    pub chart: &'static str,
    entries: Arc<[ChartEntry]>,
    packages: &'a Interner,
}

impl<'a> ChartView<'a> {
    /// `(package, rank)` entries in crawl order (rank ascending).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (&'a str, usize)> + '_ {
        let packages = self.packages;
        self.entries
            .iter()
            .map(move |&(pkg, rank)| (packages.resolve(pkg), rank as usize))
    }
}

impl std::fmt::Debug for ChartView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: Vec<_> = self.entries().collect();
        write!(f, "{} {} {entries:?}", self.day, self.chart)
    }
}

/// A [`Dataset`] as a checkpoint carries it, which is all
/// [`Dataset::restored`] needs: every symbol table, the profile log,
/// and for the offer and chart logs the spilled prefix by reference
/// plus the resident suffix.
#[derive(Debug, Clone)]
pub struct SavedDataset {
    /// Every table the rows' symbols resolve through.
    pub syms: SymTables,
    /// Spilled prefix of the offer log: the spill file plus one
    /// CRC-checked segment reference per disk segment.
    pub offers_spill: SpillManifest,
    /// Resident suffix of the offer log, arrival order.
    pub offers: SavedRows,
    /// The whole profile log, arrival order.
    pub profiles: SavedRows,
    /// Spilled prefix of the chart log.
    pub charts_spill: SpillManifest,
    /// Resident suffix of the chart log, arrival order.
    pub charts: SavedRows,
}

/// A log's rows as a snapshot section carries them: the section body
/// (row count, then each row's bytes), copied out of the snapshot and
/// checked to decode against the snapshot's tables. A restore decodes
/// it again one row at a time, so the rows are never held decoded
/// beside their bytes.
#[derive(Debug, Clone)]
pub struct SavedRows(Vec<u8>);

impl SavedRows {
    /// Checks an offer section body against `syms` and keeps it.
    pub fn offers(body: &[u8], syms: &SymTables) -> Result<SavedRows, FrameError> {
        SavedRows::checked(body, |d| OfferRow::decode(d, syms).map(drop))
    }

    /// Checks a profile section body against `syms` and keeps it.
    pub fn profiles(body: &[u8], syms: &SymTables) -> Result<SavedRows, FrameError> {
        SavedRows::checked(body, |d| ProfileRow::decode(d, syms).map(drop))
    }

    /// Checks a chart section body against `syms` and keeps it.
    pub fn charts(body: &[u8], syms: &SymTables) -> Result<SavedRows, FrameError> {
        SavedRows::checked(body, |d| ChartRow::decode(d, syms).map(drop))
    }

    fn checked(
        body: &[u8],
        row: impl FnMut(&mut Dec<'_>) -> Result<(), FrameError>,
    ) -> Result<SavedRows, FrameError> {
        let rows = SavedRows(body.to_vec());
        rows.read(row).map(|()| rows)
    }

    /// Hands each row's bytes to `row`, in order.
    fn read(
        &self,
        mut row: impl FnMut(&mut Dec<'_>) -> Result<(), FrameError>,
    ) -> Result<(), FrameError> {
        let mut d = Dec::new(&self.0);
        for _ in 0..d.u64()? {
            row(&mut d)?;
        }
        d.finish()
    }
}

/// Incremental per-package aggregate behind [`Dataset::observations`].
#[derive(Debug, Clone)]
struct ObservationAgg {
    iips: BTreeSet<IipId>,
    first_seen: SimTime,
    last_seen: SimTime,
    /// Distinct `(iip, key)` pairs seen under this package.
    keys: BTreeSet<(IipId, u64)>,
}

impl ObservationAgg {
    fn campaign(&self, package: Sym) -> CampaignRef<'_> {
        CampaignRef {
            package,
            iips: &self.iips,
            first_seen: self.first_seen,
            last_seen: self.last_seen,
            offer_count: self.keys.len(),
        }
    }

    fn observation(&self, package: &str) -> CampaignObservation {
        CampaignObservation {
            package: package.to_string(),
            iips: self.iips.clone(),
            first_seen: self.first_seen,
            last_seen: self.last_seen,
            offer_count: self.keys.len(),
        }
    }
}

/// The dataset store.
///
/// The two bulk logs (offer observations, chart crawls) live in
/// spill-capable [`RowLog`]s of interned rows: under a memory budget
/// their cold segments move to disk and the accessors stream them back
/// through an LRU — same rows, same order, any budget. Profiles stay
/// fully resident, as interned rows in a [`ProfileLog`]: they are the
/// random-access query surface (`profile_series`, `first_profile`).
/// The first observation of each unique `(iip, key)` is additionally
/// kept as a resident [`OfferRow`], so the experiment joins over
/// `unique_offers` never touch disk.
#[derive(Debug, Default)]
pub struct Dataset {
    offers: RowLog<OfferRow>,
    profiles: ProfileLog,
    charts: RowLog<ChartRow>,

    /// The symbol spaces rows and indices point into.
    syms: SymTables,
    /// Each package's last store-URL symbol: a package keeps its URL,
    /// so ingest compares against it before hashing the URL.
    url_by_pkg: SymMap<Sym>,
    /// The last affiliate symbol: a milk batch shares one affiliate,
    /// so ingest compares against it before hashing.
    last_affiliate: Option<Sym>,

    // Incremental indices, maintained by the `add_*` methods.
    /// Dedup set over `(iip, offer_key)`.
    seen_offer_keys: BTreeSet<(IipId, u64)>,
    /// The first observation of each key, in arrival order — what
    /// `unique_offers()` reads, so deduplicated joins stay off the
    /// spill path.
    unique: Chunked<OfferRow>,
    /// Distinct advertised packages.
    advertised: SymSet,
    /// Distinct packages per platform, indexed by `iip as usize`.
    by_iip: [SymSet; IipId::ALL.len()],
    /// Distinct packages on vetted ([1]) / unvetted ([0]) platforms.
    by_class: [SymSet; 2],
    /// Per-package campaign aggregates.
    observations: SymMap<ObservationAgg>,
    /// `(day, rank)` per chart, per package.
    chart_ranks: BTreeMap<&'static str, SymMap<Vec<(u64, usize)>>>,
    /// Days each package appeared in any chart, ascending.
    chart_days_by_package: SymMap<Vec<u64>>,
    /// Distinct chart crawl days.
    chart_days: BTreeSet<u64>,
}

impl Dataset {
    /// Empty dataset with empty symbol tables.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Empty dataset whose package symbol space starts from `seed` —
    /// the world's generation-order interner, so dataset symbols agree
    /// with world symbols for every pre-planned name.
    pub fn with_interner(seed: Interner) -> Dataset {
        Dataset {
            syms: SymTables {
                pkg: seed,
                ..SymTables::default()
            },
            ..Dataset::default()
        }
    }

    /// Rebuilds this empty dataset from its checkpointed form.
    ///
    /// The snapshot carries every symbol table the rows resolve through,
    /// and every index is a pure function of the rows in arrival order.
    /// So the restore takes the tables as saved and feeds each decoded
    /// row through the indexing path live ingest uses, interning
    /// nothing. Each row's symbols are checked against the tables as it
    /// decodes: a row naming a symbol past its table (a corrupt or
    /// inconsistent snapshot) is an error.
    ///
    /// A log's spilled segments are reattached, not read from the
    /// snapshot: each is read once, straight from disk and past the
    /// reload cache, verified and streamed through the indexing pass,
    /// and stays spilled afterwards. The suffix rows decode from their
    /// section bytes and are re-added under the memory budget already
    /// set on this dataset ([`Dataset::set_memory_budget`]), so
    /// segments close and spill exactly as they did in the run that
    /// wrote the snapshot.
    pub fn restored(mut self, saved: SavedDataset) -> iiscope_types::Result<Dataset> {
        assert!(
            self.offers.is_empty() && self.profiles.is_empty() && self.charts.is_empty(),
            "restore into an empty dataset only"
        );
        let invalid = |what: &str, e: &dyn std::fmt::Display| {
            iiscope_types::Error::InvalidState(format!("{what}: {e}"))
        };
        self.syms = saved.syms;
        // A log's spilled rows stream through the indexing pass as they
        // are verified; the log is taken out meanwhile because the
        // indices borrow `self` mutably.
        let mut log = std::mem::take(&mut self.offers);
        let attached = log.attach(&saved.offers_spill, |d| {
            let row = OfferRow::decode(d, &self.syms)?;
            self.index_offer(&row);
            Ok(())
        });
        self.offers = log;
        attached.map_err(|e| invalid("offers spill manifest", &e))?;
        let rows = saved.offers.read(|d| {
            let row = OfferRow::decode(d, &self.syms)?;
            self.push_offer(row);
            Ok(())
        });
        rows.map_err(|e| invalid("offer rows", &e))?;
        let rows = saved.profiles.read(|d| {
            let row = ProfileRow::decode(d, &self.syms)?;
            self.profiles.push_row(row);
            Ok(())
        });
        rows.map_err(|e| invalid("profile rows", &e))?;
        let mut log = std::mem::take(&mut self.charts);
        let attached = log.attach(&saved.charts_spill, |d| {
            self.index_chart(&ChartRow::decode(d, &self.syms)?);
            Ok(())
        });
        self.charts = log;
        attached.map_err(|e| invalid("charts spill manifest", &e))?;
        let rows = saved.charts.read(|d| {
            let row = ChartRow::decode(d, &self.syms)?;
            self.push_chart(row);
            Ok(())
        });
        rows.map_err(|e| invalid("chart rows", &e))?;
        Ok(self)
    }

    /// Sets the memory budget for the spillable logs (split evenly
    /// between offers and charts) and where their spill files live.
    /// The budget bounds accounted bytes ([`LogRow::accounted_bytes`]:
    /// each row at its owned crawl's size), an upper bound on what the
    /// interned rows really hold. `None` keeps everything resident.
    /// Spilling never changes a query result — only where cold rows
    /// wait.
    pub fn set_memory_budget(&mut self, budget: Option<u64>, spill_dir: &Path, label: &str) {
        let per_log = budget.map(|b| (b / 2).max(4096));
        let file = |log: &str| spill_dir.join(format!("{label}-{log}.spill"));
        self.offers.configure(per_log, file("offers"));
        self.charts.configure(per_log, file("charts"));
    }

    /// Combined spill counters of the offer and chart logs.
    pub fn spill_stats(&self) -> SpillStats {
        self.offers.stats().merged(self.charts.stats())
    }

    /// The first failed spill write of either log, if any (the logs
    /// keep every row resident after it).
    pub fn spill_error(&self) -> Option<&SpillError> {
        self.offers.spill_error().or(self.charts.spill_error())
    }

    /// Flushes both logs' spill files to the device. A snapshot names
    /// their segments, so they must be durable before it is written.
    pub fn sync_spill(&self) -> Result<(), SpillError> {
        self.offers.sync().and_then(|()| self.charts.sync())
    }

    /// Spill manifest of the offer log (for checkpointing).
    pub fn offers_spill(&self) -> &SpillManifest {
        self.offers.manifest()
    }

    /// Writes the offer rows not covered by [`Dataset::offers_spill`]
    /// as a snapshot section body (their count, then each row's bytes
    /// in arrival order), straight from the interned rows.
    pub fn enc_offers(&self, e: &mut Enc) {
        self.offers.enc_resident(e);
    }

    /// Writes the whole profile log as a snapshot section body.
    pub fn enc_profiles(&self, e: &mut Enc) {
        self.profiles.encode(e);
    }

    /// Spill manifest of the chart log (for checkpointing).
    pub fn charts_spill(&self) -> &SpillManifest {
        self.charts.manifest()
    }

    /// Writes the chart rows not covered by [`Dataset::charts_spill`]
    /// like [`Dataset::enc_offers`].
    pub fn enc_charts(&self, e: &mut Enc) {
        self.charts.enc_resident(e);
    }

    /// The row of one observation, its strings interned in a fixed
    /// order (description, package, store URL, affiliate).
    fn intern_offer(&mut self, o: OfferFields<'_>) -> OfferRow {
        let desc = self.syms.desc.intern(o.description);
        let pkg = self.syms.pkg.intern(o.package);
        let (url, affiliate) = (
            self.url_sym(pkg, o.store_url),
            self.affiliate_sym(o.affiliate),
        );
        OfferRow::new(o, [pkg, desc, url, affiliate])
    }

    /// Index maintenance for one offer row (shared by live ingest and
    /// the restore), including the store-URL and affiliate memos.
    fn index_offer(&mut self, row: &OfferRow) {
        let (pkg, iip, seen_at) = (row.package, row.iip, row.seen_at);
        if self.seen_offer_keys.insert((iip, row.offer_key)) {
            self.unique.push(*row);
        }
        self.advertised.insert(pkg);
        self.by_iip[iip as usize].insert(pkg);
        self.by_class[usize::from(iip.is_vetted())].insert(pkg);
        let agg = self
            .observations
            .get_or_insert_with(pkg, || ObservationAgg {
                iips: BTreeSet::new(),
                first_seen: seen_at,
                last_seen: seen_at,
                keys: BTreeSet::new(),
            });
        agg.iips.insert(iip);
        agg.first_seen = agg.first_seen.min(seen_at);
        agg.last_seen = agg.last_seen.max(seen_at);
        agg.keys.insert((iip, row.offer_key));
        self.url_by_pkg.insert(pkg, row.store_url);
        self.last_affiliate = Some(row.affiliate);
    }

    /// Store-URL symbol of an offer of package `pkg`. A package keeps
    /// its URL, so the package's last URL is compared before hashing.
    fn url_sym(&mut self, pkg: Sym, url: &str) -> Sym {
        match self.url_by_pkg.get(pkg) {
            Some(&last) if self.syms.url.resolve(last) == url => last,
            _ => self.syms.url.intern(url),
        }
    }

    /// Affiliate symbol of an offer. A milk batch shares one affiliate,
    /// so the previous row's is compared before hashing.
    fn affiliate_sym(&mut self, affiliate: &str) -> Sym {
        match self.last_affiliate {
            Some(last) if self.syms.affiliate.resolve(last) == affiliate => last,
            _ => self.syms.affiliate.intern(affiliate),
        }
    }

    /// Appends scraped offers, updating every offer index (including
    /// the `(iip, key)` dedup set — first observation wins).
    pub fn add_offers(&mut self, offers: impl IntoIterator<Item = ScrapedOffer>) {
        for o in offers {
            let row = self.intern_offer(o.fields());
            self.push_offer(row);
        }
    }

    /// Indexes one offer row and appends it.
    fn push_offer(&mut self, row: OfferRow) {
        self.index_offer(&row);
        self.offers.push(row);
    }

    /// Appends a profile snapshot, keeping the per-package timeline
    /// day-sorted (stable: equal days stay in arrival order).
    pub fn add_profile(&mut self, snap: ProfileSnapshot) {
        let pkg = self.syms.pkg.intern(&snap.package);
        self.profiles
            .push(pkg, snap.fields(), &mut self.syms.profile);
    }

    /// Index maintenance for one chart crawl (shared by live ingest and
    /// the restore re-ingest).
    fn index_chart(&mut self, row: &ChartRow) {
        self.chart_days.insert(row.day);
        let per_pkg = self.chart_ranks.entry(row.chart).or_default();
        for &(sym, rank) in row.entries.iter() {
            let ranks = per_pkg.get_or_insert_with(sym, Vec::new);
            let at = ranks.partition_point(|&(d, _)| d <= row.day);
            ranks.insert(at, (row.day, rank as usize));
            let days = self.chart_days_by_package.get_or_insert_with(sym, Vec::new);
            let at = days.partition_point(|&d| d < row.day);
            if days.get(at) != Some(&row.day) {
                days.insert(at, row.day);
            }
        }
    }

    /// Appends a chart crawl, interning its packages and updating the
    /// presence indices.
    ///
    /// # Panics
    /// If a rank does not fit in `u32`; the crawler drops such entries.
    pub fn add_chart(&mut self, snap: ChartSnapshot) {
        let pkg = &mut self.syms.pkg;
        let entries = snap.entries.iter().map(|(name, rank)| {
            let rank = u32::try_from(*rank).expect("chart rank fits in u32");
            (pkg.intern(name), rank)
        });
        let names: usize = snap.entries.iter().map(|(name, _)| name.len()).sum();
        let row = ChartRow {
            day: snap.day,
            chart: snap.chart,
            entries: entries.collect(),
            accounted: chart_accounted(snap.entries.len(), names),
        };
        self.push_chart(row);
    }

    /// Indexes one chart crawl and appends its row.
    fn push_chart(&mut self, row: ChartRow) {
        self.index_chart(&row);
        self.charts.push(row);
    }

    /// All offer observations, in arrival order, as views into the
    /// interned log (spilled segments decode on the fly); the iterator
    /// is exact-sized (`.len()` is the row count).
    pub fn offers(&self) -> RowLogIter<'_, OfferRow> {
        self.offers.iter(&self.syms)
    }

    /// All profile crawls in arrival order, decoded (exact-sized).
    pub fn profiles(&self) -> impl ExactSizeIterator<Item = ProfileFields<'_>> + '_ {
        self.profiles.iter(&self.syms)
    }

    /// All chart crawls, in arrival order (streaming, like
    /// [`Dataset::offers`]).
    pub fn charts(&self) -> RowLogIter<'_, ChartRow> {
        self.charts.iter(&self.syms)
    }

    /// Deduplicated offers: the first observation of each `(iip, key)`,
    /// in arrival order. Served from resident rows — never touches the
    /// spill path.
    pub fn unique_offers(&self) -> impl ExactSizeIterator<Item = OfferFields<'_>> + '_ {
        self.unique.iter().map(|r| r.view(&self.syms))
    }

    /// Number of deduplicated offers ingested so far — the cursor an
    /// incremental fold records so its next pass starts where this one
    /// ended.
    pub fn unique_offer_count(&self) -> usize {
        self.unique.len()
    }

    /// The deduplicated offers appended at index `start` and later,
    /// with their package and description symbols — the columnar view
    /// the experiment joins and the per-day fold run on. Served from
    /// resident rows, so a fold never touches the spill path.
    pub fn unique_offers_with_syms_from(
        &self,
        start: usize,
    ) -> impl Iterator<Item = (OfferFields<'_>, Sym, Sym)> + '_ {
        (start.min(self.unique.len())..self.unique.len()).map(|i| {
            let row = &self.unique[i];
            (row.view(&self.syms), row.package, row.description)
        })
    }

    /// Delta view of [`Dataset::charts`]: crawls appended at row
    /// `start` and later. A cursor past the spilled prefix streams
    /// straight from resident segments without reloading cold ones.
    pub fn charts_from(&self, start: usize) -> RowLogIter<'_, ChartRow> {
        self.charts.iter_from(start, &self.syms)
    }

    /// Unique offer descriptions (the paper counts 1,128).
    pub fn unique_descriptions(&self) -> BTreeSet<&str> {
        self.syms.desc.iter().map(|(_, s)| s).collect()
    }

    /// Unique advertised packages (the paper counts 922).
    pub fn advertised_packages(&self) -> BTreeSet<&str> {
        self.resolve_set(&self.advertised)
    }

    /// Packages advertised on a specific IIP.
    pub fn packages_on(&self, iip: IipId) -> BTreeSet<&str> {
        self.resolve_set(&self.by_iip[iip as usize])
    }

    /// Packages advertised on any vetted (true) / unvetted (false)
    /// platform. Note an app can be in both sets (Table 5's N values
    /// overlap: 492 + 538 > 922).
    pub fn packages_by_class(&self, vetted: bool) -> BTreeSet<&str> {
        self.resolve_set(&self.by_class[usize::from(vetted)])
    }

    fn resolve_set(&self, set: &SymSet) -> BTreeSet<&str> {
        set.iter().map(|s| self.syms.pkg.resolve(s)).collect()
    }

    /// The package symbol table (shared with the world's interner when
    /// built via [`Dataset::with_interner`]).
    pub fn package_interner(&self) -> &Interner {
        &self.syms.pkg
    }

    /// The offer-description symbol table.
    pub fn description_interner(&self) -> &Interner {
        &self.syms.desc
    }

    /// Every symbol table the rows resolve through, as a snapshot's
    /// SYMS section carries them.
    pub fn symbol_tables(&self) -> &SymTables {
        &self.syms
    }

    /// Symbol of a package name, if it was ever observed or seeded.
    pub fn pkg_sym(&self, package: &str) -> Option<Sym> {
        self.syms.pkg.get(package)
    }

    /// The package name behind a symbol.
    pub fn pkg_name(&self, sym: Sym) -> &str {
        self.syms.pkg.resolve(sym)
    }

    /// Advertised packages as a bitset over the symbol space.
    pub fn advertised_syms(&self) -> &SymSet {
        &self.advertised
    }

    /// Per-class advertised packages as a bitset.
    pub fn class_syms(&self, vetted: bool) -> &SymSet {
        &self.by_class[usize::from(vetted)]
    }

    /// Per-IIP advertised packages as a bitset.
    pub fn iip_syms(&self, iip: IipId) -> &SymSet {
        &self.by_iip[iip as usize]
    }

    /// Per-app observation summaries, sorted by package.
    pub fn observations(&self) -> Vec<CampaignObservation> {
        let mut named: Vec<(&str, &ObservationAgg)> = self
            .observations
            .iter()
            .map(|(sym, agg)| (self.syms.pkg.resolve(sym), agg))
            .collect();
        named.sort_unstable_by_key(|(name, _)| *name);
        named
            .into_iter()
            .map(|(name, agg)| agg.observation(name))
            .collect()
    }

    /// Observation for one package.
    pub fn observation(&self, package: &str) -> Option<CampaignObservation> {
        let sym = self.syms.pkg.get(package)?;
        Some(self.observations.get(sym)?.observation(package))
    }

    /// Borrowed observation summary for one package symbol.
    pub fn campaign(&self, sym: Sym) -> Option<CampaignRef<'_>> {
        Some(self.observations.get(sym)?.campaign(sym))
    }

    /// All borrowed observation summaries, in symbol order. Use for
    /// order-insensitive aggregation; [`Dataset::observations`] is the
    /// lexicographically-sorted report-boundary view.
    pub fn campaigns(&self) -> impl Iterator<Item = CampaignRef<'_>> + '_ {
        self.observations.iter().map(|(sym, agg)| agg.campaign(sym))
    }

    /// Profile timeline of one package, day-ascending (equal days in
    /// arrival order).
    pub fn profile_series(&self, package: &str) -> Vec<ProfileFields<'_>> {
        self.syms
            .pkg
            .get(package)
            .map(|sym| self.profile_series_sym(sym))
            .unwrap_or_default()
    }

    /// Profile timeline of one package symbol, day-ascending.
    pub fn profile_series_sym(&self, sym: Sym) -> Vec<ProfileFields<'_>> {
        self.profiles.series(sym, &self.syms)
    }

    /// First profile crawl of one package (crawl-day order).
    pub fn first_profile(&self, package: &str) -> Option<ProfileFields<'_>> {
        self.first_profile_sym(self.syms.pkg.get(package)?)
    }

    /// First profile crawl of one package symbol (crawl-day order).
    pub fn first_profile_sym(&self, sym: Sym) -> Option<ProfileFields<'_>> {
        self.profiles.first(sym, &self.syms)
    }

    /// Days on which `package` appeared in `chart`, with its rank.
    pub fn chart_presence(&self, package: &str, chart: &str) -> Vec<(u64, usize)> {
        self.syms
            .pkg
            .get(package)
            .map(|sym| self.chart_presence_sym(sym, chart).to_vec())
            .unwrap_or_default()
    }

    /// Borrowed `(day, rank)` timeline of one package symbol in
    /// `chart`.
    pub fn chart_presence_sym(&self, sym: Sym, chart: &str) -> &[(u64, usize)] {
        self.chart_ranks
            .get(chart)
            .and_then(|per_pkg| per_pkg.get(sym))
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Whether `package` appeared in *any* chart in the day range
    /// `[from, to]`.
    pub fn in_any_chart(&self, package: &str, from: u64, to: u64) -> bool {
        self.syms
            .pkg
            .get(package)
            .is_some_and(|sym| self.in_any_chart_sym(sym, from, to))
    }

    /// Symbol-keyed variant of [`Dataset::in_any_chart`].
    pub fn in_any_chart_sym(&self, sym: Sym, from: u64, to: u64) -> bool {
        self.chart_days_by_package.get(sym).is_some_and(|days| {
            days.get(days.partition_point(|&d| d < from))
                .is_some_and(|&d| d <= to)
        })
    }

    /// Distinct crawl days present in the chart dataset.
    pub fn chart_days(&self) -> &BTreeSet<u64> {
        &self.chart_days
    }

    /// Symbol-table sizes for the bench dumps.
    pub fn intern_stats(&self) -> InternStats {
        InternStats {
            package_symbols: self.syms.pkg.len(),
            package_slab_bytes: self.syms.pkg.slab_bytes(),
            description_symbols: self.syms.desc.len(),
            description_slab_bytes: self.syms.desc.slab_bytes(),
        }
    }

    /// Bytes the offer log takes when fully resident: rows × row size
    /// plus the store-URL and affiliate slabs only the log uses
    /// (`offer_log_bytes` in `BENCH_dataset.json`). The package and
    /// description slabs are shared with the indices and counted by
    /// [`Dataset::intern_stats`].
    pub fn offer_log_bytes(&self) -> usize {
        self.offers.len() * std::mem::size_of::<OfferRow>()
            + self.syms.url.slab_bytes()
            + self.syms.affiliate.slab_bytes()
    }

    /// Heap bytes of the profile log (`profile_log_bytes` in
    /// `BENCH_dataset.json`): its row chunks at their capacity × row
    /// size, plus its string table and per-package chain ends. The
    /// package slab is shared and counted by [`Dataset::intern_stats`].
    pub fn profile_log_bytes(&self) -> usize {
        self.profiles.heap_bytes() + self.syms.profile.heap_bytes()
    }

    /// Chart entries ingested so far (`chart_entries` in
    /// `BENCH_dataset.json`), one per `(day, rank)` of the presence index.
    pub fn chart_entries(&self) -> usize {
        let per_pkg = self.chart_ranks.values().flat_map(SymMap::iter);
        per_pkg.map(|(_, ranks)| ranks.len()).sum()
    }

    /// Bytes the chart log takes when fully resident (`chart_log_bytes`
    /// in `BENCH_dataset.json`): rows × row size, plus each row's entry
    /// allocation (two reference counts and 8 bytes per entry).
    pub fn chart_log_bytes(&self) -> usize {
        use std::mem::size_of;
        self.charts.len() * (size_of::<ChartRow>() + 2 * size_of::<usize>())
            + self.chart_entries() * size_of::<ChartEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsers::{RawOffer, RewardValue};
    use iiscope_types::Country;

    fn offer(iip: IipId, key: u64, pkg: &str, day: u64, desc: &str) -> ScrapedOffer {
        ScrapedOffer {
            iip,
            raw: RawOffer {
                offer_key: key,
                description: desc.into(),
                reward: RewardValue::Cents(5),
                package: pkg.into(),
                store_url: format!("https://play.iiscope/store/apps/details?id={pkg}"),
            },
            seen_at: SimTime::from_days(day),
            affiliate: "com.cash.app".into(),
            vantage: Country::Us,
        }
    }

    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        d.add_offers([
            offer(IipId::Fyber, 1, "com.a.one", 10, "Install and Register"),
            offer(IipId::Fyber, 1, "com.a.one", 12, "Install and Register"), // re-observed
            offer(IipId::RankApp, 7, "com.a.one", 14, "Install and Launch"),
            offer(IipId::RankApp, 8, "com.b.two", 11, "Install and Launch"),
        ]);
        d
    }

    /// The chart log's views, spelled out (views compare by content).
    fn chart_log(ds: &Dataset) -> String {
        format!("{:?}", ds.charts().collect::<Vec<_>>())
    }

    /// The dataset's checkpointed form, as a snapshot carries it.
    fn saved(ds: &Dataset) -> SavedDataset {
        let body = |enc: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            enc(&mut e);
            e.into_bytes()
        };
        let syms = ds.symbol_tables();
        SavedDataset {
            syms: syms.clone(),
            offers_spill: ds.offers_spill().clone(),
            offers: SavedRows::offers(&body(&|e| ds.enc_offers(e)), syms).unwrap(),
            profiles: SavedRows::profiles(&body(&|e| ds.enc_profiles(e)), syms).unwrap(),
            charts_spill: ds.charts_spill().clone(),
            charts: SavedRows::charts(&body(&|e| ds.enc_charts(e)), syms).unwrap(),
        }
    }

    #[test]
    fn dedup_and_counts() {
        let d = dataset();
        assert_eq!(d.offers().len(), 4);
        assert_eq!(d.unique_offers().len(), 3);
        assert_eq!(d.unique_descriptions().len(), 2);
        assert_eq!(d.advertised_packages().len(), 2);
    }

    #[test]
    fn dedup_keeps_first_seen_fields_across_crawl_days() {
        // The same (iip, key) re-observed on a later crawl day with a
        // drifted payout/description must not displace the first
        // observation in the deduplicated view.
        let mut d = Dataset::new();
        d.add_offers([offer(
            IipId::Fyber,
            42,
            "com.a.one",
            10,
            "Install and Register",
        )]);
        // Second crawl day: identical key, different payout and text.
        let mut drifted = offer(IipId::Fyber, 42, "com.a.one", 12, "Install and win BIG");
        drifted.raw.reward = RewardValue::Cents(99);
        d.add_offers([drifted]);

        assert_eq!(d.offers().len(), 2, "raw log keeps both observations");
        let unique: Vec<OfferFields> = d.unique_offers().collect();
        assert_eq!(unique.len(), 1);
        assert_eq!(unique[0].seen_at, SimTime::from_days(10));
        assert_eq!(unique[0].reward, RewardValue::Cents(5));
        assert_eq!(unique[0].description, "Install and Register");
        // The campaign window still spans both sightings.
        let obs = d.observation("com.a.one").unwrap();
        assert_eq!(obs.first_seen, SimTime::from_days(10));
        assert_eq!(obs.last_seen, SimTime::from_days(12));
        assert_eq!(obs.offer_count, 1);
    }

    #[test]
    fn per_class_sets_can_overlap() {
        let d = dataset();
        let vetted = d.packages_by_class(true);
        let unvetted = d.packages_by_class(false);
        assert!(vetted.contains("com.a.one"));
        assert!(unvetted.contains("com.a.one"));
        assert!(!vetted.contains("com.b.two"));
        assert_eq!(d.packages_on(IipId::RankApp).len(), 2);
    }

    #[test]
    fn observations_aggregate_windows() {
        let d = dataset();
        let obs = d.observation("com.a.one").unwrap();
        assert_eq!(obs.first_seen, SimTime::from_days(10));
        assert_eq!(obs.last_seen, SimTime::from_days(14));
        assert_eq!(obs.duration_days(), 4);
        assert_eq!(obs.offer_count, 2);
        assert!(obs.on_vetted() && obs.on_unvetted());
        assert!(d.observation("com.none").is_none());
    }

    #[test]
    fn sym_accessors_mirror_string_accessors() {
        let d = dataset();
        let sym = d.pkg_sym("com.a.one").expect("interned");
        assert_eq!(d.pkg_name(sym), "com.a.one");
        let obs = d.observation("com.a.one").unwrap();
        let by_sym = d.campaign(sym).expect("observed");
        assert_eq!(by_sym.first_seen, obs.first_seen);
        assert_eq!(by_sym.last_seen, obs.last_seen);
        assert_eq!(by_sym.offer_count, obs.offer_count);
        assert_eq!(by_sym.iips, &obs.iips);
        assert_eq!(d.advertised_syms().len(), d.advertised_packages().len());
        assert!(d.class_syms(true).contains(sym));
        assert!(d.iip_syms(IipId::Fyber).contains(sym));
        // The columnar unique view carries matching symbols.
        for (o, pkg, desc) in d.unique_offers_with_syms_from(0) {
            assert_eq!(d.pkg_name(pkg), o.package);
            assert_eq!(d.pkg_sym(o.package), Some(pkg));
            assert!(!d.pkg_name(pkg).is_empty());
            let _ = desc;
        }
        assert_eq!(d.campaigns().count(), d.observations().len());
    }

    #[test]
    fn seeded_interner_preserves_world_numbering() {
        let mut seed = Interner::new();
        let pre = seed.intern("com.planned.app");
        let d = Dataset::with_interner(seed);
        assert_eq!(d.pkg_sym("com.planned.app"), Some(pre));
        // Seeded-but-unobserved names are not advertised.
        assert!(d.advertised_packages().is_empty());
        assert!(!d.advertised_syms().contains(pre));
    }

    #[test]
    fn chart_queries() {
        let mut d = dataset();
        d.add_chart(ChartSnapshot {
            day: 10,
            chart: "topselling_free",
            entries: vec![("com.a.one".into(), 3)],
        });
        d.add_chart(ChartSnapshot {
            day: 12,
            chart: "topselling_free",
            entries: vec![("com.b.two".into(), 1)],
        });
        assert_eq!(
            d.chart_presence("com.a.one", "topselling_free"),
            vec![(10, 3)]
        );
        assert!(d.in_any_chart("com.a.one", 9, 11));
        assert!(!d.in_any_chart("com.a.one", 11, 20));
        assert_eq!(d.chart_days().len(), 2);
    }

    #[test]
    fn profile_series_sorted() {
        let mut d = Dataset::new();
        for day in [14u64, 10, 12] {
            d.add_profile(ProfileSnapshot {
                day,
                package: "com.a.one".into(),
                title: "A".into(),
                genre_id: "TOOLS".into(),
                released_day: 1,
                min_installs: 100 * day,
                developer_id: 1,
                developer_name: "d".into(),
                developer_country: "US".into(),
                developer_email: "e".into(),
                developer_website: String::new(),
                rating: 0.0,
                rating_count: 0,
            });
        }
        let series = d.profile_series("com.a.one");
        assert_eq!(
            series.iter().map(|p| p.day).collect::<Vec<_>>(),
            vec![10, 12, 14]
        );
        assert!(d.profile_series("com.none").is_empty());
        let sym = d.pkg_sym("com.a.one").unwrap();
        assert_eq!(d.first_profile_sym(sym).unwrap().day, 10);
    }

    #[test]
    fn from_parts_round_trips_interleaved_ingest() {
        // Interleave offers / profiles / charts the way crawl days do,
        // so symbol numbering depends on the interleaving.
        let mut live = dataset();
        live.add_profile(ProfileSnapshot {
            day: 10,
            package: "com.z.late".into(),
            title: "Z".into(),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: 500,
            developer_id: 9,
            developer_name: "z".into(),
            developer_country: "US".into(),
            developer_email: "z@z".into(),
            developer_website: String::new(),
            rating: 4.5,
            rating_count: 3,
        });
        live.add_chart(ChartSnapshot {
            day: 10,
            chart: "topselling_free",
            entries: vec![("com.chart.only".into(), 1)],
        });
        live.add_offers([offer(IipId::AdGem, 30, "com.c.three", 12, "Install")]);

        let restored = Dataset::new().restored(saved(&live)).unwrap();

        assert_eq!(restored.package_interner(), live.package_interner());
        assert_eq!(restored.description_interner(), live.description_interner());
        assert_eq!(
            restored.offers().collect::<Vec<_>>(),
            live.offers().collect::<Vec<_>>()
        );
        assert_eq!(
            restored.profiles().collect::<Vec<_>>(),
            live.profiles().collect::<Vec<_>>()
        );
        assert_eq!(chart_log(&restored), chart_log(&live));
        assert!(restored.unique_offers().eq(live.unique_offers()));
        assert_eq!(restored.advertised_packages(), live.advertised_packages());
        assert_eq!(restored.observations(), live.observations());
        assert_eq!(
            restored.chart_presence("com.chart.only", "topselling_free"),
            live.chart_presence("com.chart.only", "topselling_free")
        );
        assert_eq!(
            restored.profile_series("com.z.late"),
            live.profile_series("com.z.late")
        );

        // A row naming a symbol past its table is refused, whichever
        // log it sits in, never resolved or minted.
        let err = |saved| Dataset::new().restored(saved).unwrap_err().to_string();
        let short = |edit: fn(&mut SymTables)| {
            let mut s = saved(&live);
            edit(&mut s.syms);
            s
        };
        let no_rows = || SavedRows(0u64.to_le_bytes().to_vec());
        let cases = [
            ("offer rows", short(|s| s.url = Interner::new())),
            (
                "profile rows",
                SavedDataset {
                    offers: no_rows(),
                    ..short(|s| s.profile = Interner::new())
                },
            ),
            (
                "chart rows",
                SavedDataset {
                    offers: no_rows(),
                    profiles: no_rows(),
                    ..short(|s| s.pkg = Interner::new())
                },
            ),
        ];
        for (log, bad) in cases {
            let bad = err(bad);
            assert!(bad.contains(log), "{bad}");
            assert!(bad.contains("symbol past the end of its table"), "{bad}");
        }
        // And rows that do not decode.
        let bad = err(SavedDataset {
            offers: saved(&live).charts,
            ..saved(&live)
        });
        assert!(bad.contains("offer rows"), "{bad}");
    }

    #[test]
    fn spilled_dataset_matches_resident_dataset() {
        let spill_dir = std::env::temp_dir().join(format!(
            "iiscope-ds-spill-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&spill_dir);
        let many: Vec<ScrapedOffer> = (0..3_000)
            .map(|k| {
                offer(
                    IipId::ALL[k % IipId::ALL.len()],
                    k as u64 % 700,
                    &format!("com.app.{}", k % 120),
                    (k % 90) as u64,
                    &format!("Install and run #{}", k % 40),
                )
            })
            .collect();
        let charts: Vec<ChartSnapshot> = (0..200)
            .map(|day| ChartSnapshot {
                day,
                chart: "topselling_free",
                entries: (0..50)
                    .map(|r| (format!("com.app.{}", (day + r) % 120), r as usize))
                    .collect(),
            })
            .collect();

        let mut resident = Dataset::new();
        resident.add_offers(many.clone());
        for c in charts.clone() {
            resident.add_chart(c.clone());
        }

        let mut spilled = Dataset::new();
        spilled.set_memory_budget(Some(32 * 1024), &spill_dir, "test");
        spilled.add_offers(many);
        for c in charts {
            spilled.add_chart(c);
        }
        let stats = spilled.spill_stats();
        assert!(stats.spilled_segments > 0, "budget must force spilling");

        // Every query surface agrees between the two datasets.
        assert_eq!(
            spilled.offers().collect::<Vec<_>>(),
            resident.offers().collect::<Vec<_>>()
        );
        assert_eq!(chart_log(&spilled), chart_log(&resident));
        assert!(spilled.unique_offers().eq(resident.unique_offers()));
        assert_eq!(spilled.observations(), resident.observations());
        assert_eq!(
            spilled.advertised_packages(),
            resident.advertised_packages()
        );
        assert_eq!(spilled.chart_days(), resident.chart_days());

        // A spilled dataset restores from (manifest, suffix) without
        // re-serializing the cold segments.
        let restored = Dataset::new().restored(saved(&spilled)).unwrap();
        assert_eq!(
            restored.offers().collect::<Vec<_>>(),
            resident.offers().collect::<Vec<_>>()
        );
        assert_eq!(chart_log(&restored), chart_log(&resident));
        assert_eq!(restored.observations(), resident.observations());
        assert!(restored.spill_stats().spilled_segments > 0);
        let _ = std::fs::remove_dir_all(&spill_dir);
    }

    #[test]
    fn a_reload_missing_a_symbol_names_the_spill_file() {
        let dir = std::env::temp_dir().join(format!("iiscope-ds-missing-{}", std::process::id()));
        let mut d = Dataset::new();
        d.set_memory_budget(Some(8 * 1024), &dir, "test");
        d.add_offers((0..500).map(|k| offer(IipId::Fyber, k, &format!("com.app.{k}"), 3, "")));
        for day in 0..20 {
            d.add_chart(ChartSnapshot {
                day,
                chart: "topselling_free",
                entries: (0..50)
                    .map(|r| (format!("com.\u{e9}.{}", (day + r) % 70), r as usize))
                    .collect(),
            });
        }
        // A reload checks each symbol against its table, so a table
        // shorter than the rows it is read with is a fault of the file.
        let reload = |d: &Dataset, log: &str, file: &Path, read: fn(&Dataset) -> usize| {
            let read = std::panic::AssertUnwindSafe(|| read(d));
            let panic = std::panic::catch_unwind(read)
                .expect_err(&format!("a {log} reload past a table must fail"));
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            let want = format!("spill segment at offset 0 of {} is invalid", file.display());
            assert!(msg.starts_with(&want), "{msg}");
            assert!(msg.contains("symbol past the end of its table"), "{msg}");
        };
        let offers = d
            .offers_spill()
            .file
            .clone()
            .expect("the budget spills offers");
        let charts = d
            .charts_spill()
            .file
            .clone()
            .expect("the budget spills charts");
        d.syms.url = Interner::new();
        reload(&d, "offer", &offers, |d| d.offers().count());
        d.syms.pkg = Interner::new();
        reload(&d, "chart", &charts, |d| d.charts().count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn indexed_accessors_match_a_rescan() {
        // The incremental indices must agree with a straight rescan of
        // the raw log (the pre-index implementation).
        let mut d = dataset();
        d.add_offers([
            offer(IipId::AdGem, 20, "com.c.three", 16, "Install and Launch"),
            offer(IipId::Fyber, 1, "com.a.one", 18, "Install and Register"),
        ]);

        let mut seen = BTreeSet::new();
        let rescan_unique: Vec<OfferFields> = d
            .offers()
            .filter(|o| seen.insert((o.iip, o.offer_key)))
            .collect();
        let indexed: Vec<OfferFields> = d.unique_offers().collect();
        assert_eq!(indexed, rescan_unique, "row value/order drifted");

        let rescan_packages: BTreeSet<String> = d.offers().map(|o| o.package.to_string()).collect();
        let advertised: BTreeSet<String> = d
            .advertised_packages()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(advertised, rescan_packages);

        for iip in [IipId::Fyber, IipId::RankApp, IipId::AdGem] {
            let rescan: BTreeSet<String> = d
                .offers()
                .filter(|o| o.iip == iip)
                .map(|o| o.package.to_string())
                .collect();
            let on: BTreeSet<String> = d.packages_on(iip).iter().map(|s| s.to_string()).collect();
            assert_eq!(on, rescan);
        }

        let stats = d.intern_stats();
        assert_eq!(stats.package_symbols, 3);
        assert_eq!(stats.description_symbols, 2);
        assert!(stats.package_slab_bytes > 0);
    }
}
