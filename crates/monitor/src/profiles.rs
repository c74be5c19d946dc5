//! The profile crawl log: one fixed-size row per crawled profile.
//!
//! §4.2's longitudinal crawl revisits every app on each crawl day, so
//! the log grows with apps × crawl days while its strings hardly grow
//! at all: an app's title, genre and developer identity repeat on every
//! crawl. Each crawl is therefore kept as an 80-byte [`ProfileRow`]
//! whose strings are symbols. The package is a symbol of the dataset's
//! package table (shared with offers and charts); the title, genre and
//! developer strings are symbols of its profile-string table. Numeric
//! fields keep their full `u64`/`f64` values.
//!
//! Rows live in a [`Chunked`] store, so the log never copies its
//! history to grow and its slack is at most one chunk. Each package's
//! crawls form a day-ordered chain through the rows (the `next` link
//! fills the row's alignment padding), so a package's series costs no
//! index beyond its first and last row.
//!
//! Readers get [`ProfileFields`]: decoded crawls whose strings borrow
//! the symbol tables. A snapshot's PROFILES section holds the rows as
//! they are held, symbols as `u32`s, and a restore links each decoded
//! row into its chain without hashing a string.

use crate::crawler::ProfileSnapshot;
use crate::dataset::SymTables;
use crate::spill::dec_sym;
use iiscope_types::frame::{Dec, Enc, FrameError};
use iiscope_types::{Chunked, Interner, Sym, SymMap};

/// The `next` link of a package's latest crawl.
const END: u32 = u32::MAX;

/// A profile crawl with borrowed strings: the one profile view. The
/// dataset's profile readers yield it, and ingest interns it into a
/// [`ProfileRow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileFields<'a> {
    /// Crawl day (simulated).
    pub day: u64,
    /// Package name.
    pub package: &'a str,
    /// Title.
    pub title: &'a str,
    /// Play genre id.
    pub genre_id: &'a str,
    /// Release day on the simulated timeline.
    pub released_day: u64,
    /// Public lower-bound install count.
    pub min_installs: u64,
    /// Developer id.
    pub developer_id: u64,
    /// Developer name.
    pub developer_name: &'a str,
    /// Developer country code.
    pub developer_country: &'a str,
    /// Developer contact email.
    pub developer_email: &'a str,
    /// Developer website (empty when not listed).
    pub developer_website: &'a str,
    /// Average star rating (0.0 when unrated).
    pub rating: f64,
    /// Number of ratings behind the average.
    pub rating_count: u64,
}

impl ProfileSnapshot {
    /// The snapshot's fields, borrowed.
    pub fn fields(&self) -> ProfileFields<'_> {
        ProfileFields {
            day: self.day,
            package: &self.package,
            title: &self.title,
            genre_id: &self.genre_id,
            released_day: self.released_day,
            min_installs: self.min_installs,
            developer_id: self.developer_id,
            developer_name: &self.developer_name,
            developer_country: &self.developer_country,
            developer_email: &self.developer_email,
            developer_website: &self.developer_website,
            rating: self.rating,
            rating_count: self.rating_count,
        }
    }
}

/// One profile crawl as a [`ProfileLog`] keeps it: every string an
/// interned symbol, 80 bytes in all (opaque: the log yields
/// [`ProfileFields`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileRow {
    day: u64,
    released_day: u64,
    min_installs: u64,
    developer_id: u64,
    rating: f64,
    rating_count: u64,
    package: Sym,
    title: Sym,
    genre_id: Sym,
    developer_name: Sym,
    developer_country: Sym,
    developer_email: Sym,
    developer_website: Sym,
    /// The package's next row in day order, or `END`.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<ProfileRow>() <= 80);

impl ProfileRow {
    /// Writes the row as it is held, 76 bytes: the six numbers, then
    /// the package and the six string symbols (the chain link is not
    /// written; the log relinks rows as they are pushed).
    fn encode(&self, e: &mut Enc) {
        e.u64(self.day)
            .u64(self.released_day)
            .u64(self.min_installs)
            .u64(self.developer_id)
            .f64(self.rating)
            .u64(self.rating_count);
        for sym in [
            self.package,
            self.title,
            self.genre_id,
            self.developer_name,
            self.developer_country,
            self.developer_email,
            self.developer_website,
        ] {
            e.u32(sym.0);
        }
    }

    /// Reads one row [`ProfileRow::encode`] wrote, checking its package
    /// against the package table and its strings against the profile
    /// table.
    pub(crate) fn decode(d: &mut Dec<'_>, syms: &SymTables) -> Result<ProfileRow, FrameError> {
        Ok(ProfileRow {
            day: d.u64()?,
            released_day: d.u64()?,
            min_installs: d.u64()?,
            developer_id: d.u64()?,
            rating: d.f64()?,
            rating_count: d.u64()?,
            package: dec_sym(d, &syms.pkg)?,
            title: dec_sym(d, &syms.profile)?,
            genre_id: dec_sym(d, &syms.profile)?,
            developer_name: dec_sym(d, &syms.profile)?,
            developer_country: dec_sym(d, &syms.profile)?,
            developer_email: dec_sym(d, &syms.profile)?,
            developer_website: dec_sym(d, &syms.profile)?,
            next: END,
        })
    }
}

/// The profile crawl log. Its rows resolve through the dataset's
/// [`SymTables`], which the readers are given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileLog {
    /// Rows in arrival order.
    rows: Chunked<ProfileRow>,
    /// First and last row of each package's day-ordered chain.
    series: SymMap<(u32, u32)>,
}

impl ProfileLog {
    /// An empty log.
    pub fn new() -> ProfileLog {
        ProfileLog::default()
    }

    /// Number of crawls in the log.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no crawl was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one crawl of `package`, a symbol of the package table
    /// the readers are given, interning its other strings into
    /// `strings`, the profile table. The package's series stays
    /// day-sorted; equal days keep arrival order.
    pub fn push(&mut self, package: Sym, p: ProfileFields<'_>, strings: &mut Interner) {
        // A package's strings rarely change between crawls, so each is
        // compared with the package's latest row before it is hashed.
        let last = self
            .series
            .get(package)
            .map(|&(_, tail)| self.rows[tail as usize]);
        let mut sym = |prev: Option<Sym>, s: &str| match prev {
            Some(prev) if strings.resolve(prev) == s => prev,
            _ => strings.intern(s),
        };
        self.push_row(ProfileRow {
            day: p.day,
            released_day: p.released_day,
            min_installs: p.min_installs,
            developer_id: p.developer_id,
            rating: p.rating,
            rating_count: p.rating_count,
            package,
            title: sym(last.map(|r| r.title), p.title),
            genre_id: sym(last.map(|r| r.genre_id), p.genre_id),
            developer_name: sym(last.map(|r| r.developer_name), p.developer_name),
            developer_country: sym(last.map(|r| r.developer_country), p.developer_country),
            developer_email: sym(last.map(|r| r.developer_email), p.developer_email),
            developer_website: sym(last.map(|r| r.developer_website), p.developer_website),
            next: END,
        });
    }

    /// Appends an interned row whose `next` is `END` and links it into
    /// its package's chain (shared by ingest and the restore).
    pub(crate) fn push_row(&mut self, row: ProfileRow) {
        let idx = u32::try_from(self.rows.len())
            .ok()
            .filter(|&i| i != END)
            .expect("profile log overflow");
        self.rows.push(row);
        self.link(row.package, idx, row.day);
    }

    /// Links row `idx` (crawl day `day`) into `package`'s chain after
    /// every row of the same or an earlier day.
    fn link(&mut self, package: Sym, idx: u32, day: u64) {
        let Some(&(head, tail)) = self.series.get(package) else {
            self.series.insert(package, (idx, idx));
            return;
        };
        let rows = &mut self.rows;
        if rows[tail as usize].day <= day {
            // Crawl days arrive in order: the common case.
            rows[tail as usize].next = idx;
            self.series.insert(package, (head, idx));
        } else if day < rows[head as usize].day {
            rows[idx as usize].next = head;
            self.series.insert(package, (idx, tail));
        } else {
            // head.day <= day < tail.day, so the walk stops before the
            // tail.
            let mut at = head as usize;
            while rows[rows[at].next as usize].day <= day {
                at = rows[at].next as usize;
            }
            rows[idx as usize].next = rows[at].next;
            rows[at].next = idx;
        }
    }

    fn fields<'a>(r: &ProfileRow, syms: &'a SymTables) -> ProfileFields<'a> {
        let s = |sym| syms.profile.resolve(sym);
        ProfileFields {
            day: r.day,
            package: syms.pkg.resolve(r.package),
            title: s(r.title),
            genre_id: s(r.genre_id),
            released_day: r.released_day,
            min_installs: r.min_installs,
            developer_id: r.developer_id,
            developer_name: s(r.developer_name),
            developer_country: s(r.developer_country),
            developer_email: s(r.developer_email),
            developer_website: s(r.developer_website),
            rating: r.rating,
            rating_count: r.rating_count,
        }
    }

    /// Every crawl in arrival order, resolved through `syms`
    /// (exact-sized).
    pub fn iter<'a>(
        &'a self,
        syms: &'a SymTables,
    ) -> impl ExactSizeIterator<Item = ProfileFields<'a>> + 'a {
        self.rows.iter().map(move |r| ProfileLog::fields(r, syms))
    }

    /// `package`'s crawls, day-ascending (equal days in arrival order).
    pub(crate) fn series<'a>(
        &'a self,
        package: Sym,
        syms: &'a SymTables,
    ) -> Vec<ProfileFields<'a>> {
        let mut out = Vec::new();
        let mut at = self.series.get(package).map_or(END, |&(head, _)| head);
        while at != END {
            let r = &self.rows[at as usize];
            out.push(ProfileLog::fields(r, syms));
            at = r.next;
        }
        out
    }

    /// `package`'s earliest crawl (the first of equal days).
    pub(crate) fn first<'a>(
        &'a self,
        package: Sym,
        syms: &'a SymTables,
    ) -> Option<ProfileFields<'a>> {
        let &(head, _) = self.series.get(package)?;
        Some(ProfileLog::fields(&self.rows[head as usize], syms))
    }

    /// Writes the log as a snapshot section body: the row count, then
    /// each row's bytes in arrival order.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u64(self.len() as u64);
        self.rows.iter().for_each(|r| r.encode(e));
    }

    /// Heap bytes behind the log: the row store and the per-package
    /// chain ends (the profile-string table is the dataset's).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.series.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileSnapshot;

    fn snap(day: u64, package: &str, installs: u64) -> ProfileSnapshot {
        ProfileSnapshot {
            day,
            package: package.into(),
            title: format!("Title of {package}"),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: installs,
            developer_id: 3,
            developer_name: "Dev".into(),
            developer_country: "US".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 4.5,
            rating_count: installs / 10,
        }
    }

    #[test]
    fn chains_stay_day_sorted_and_stable() {
        let mut syms = SymTables::default();
        let a = syms.pkg.intern("com.a");
        let b = syms.pkg.intern("com.b");
        let mut log = ProfileLog::new();
        // Out-of-order days and a repeated day (arrival order wins).
        for (day, pkg, n) in [(14, a, 1), (10, a, 2), (12, b, 3), (12, a, 4), (12, a, 5)] {
            let s = snap(day, syms.pkg.resolve(pkg), n);
            log.push(pkg, s.fields(), &mut syms.profile);
        }
        let series = |p| -> Vec<(u64, u64)> {
            log.series(p, &syms)
                .iter()
                .map(|f| (f.day, f.min_installs))
                .collect()
        };
        assert_eq!(series(a), vec![(10, 2), (12, 4), (12, 5), (14, 1)]);
        assert_eq!(series(b), vec![(12, 3)]);
        assert_eq!(log.first(a, &syms).unwrap().min_installs, 2);
        assert!(log.first(Sym(9), &syms).is_none());
        assert_eq!(log.iter(&syms).len(), 5);
        assert_eq!(
            log.iter(&syms).map(|f| f.min_installs).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn rows_span_chunks_and_decode_back() {
        let mut syms = SymTables::default();
        let want: Vec<ProfileSnapshot> = (0..Chunked::<ProfileRow>::ROWS as u64 * 3 + 7)
            .map(|k| {
                let mut s = snap(k / 40, &format!("com.app{}", k % 40), k);
                s.developer_website = format!("https://dev{}.example", k % 3);
                s
            })
            .collect();
        let mut log = ProfileLog::new();
        for s in &want {
            log.push(syms.pkg.intern(&s.package), s.fields(), &mut syms.profile);
        }
        let got: Vec<ProfileFields> = log.iter(&syms).collect();
        assert_eq!(
            got,
            want.iter().map(ProfileSnapshot::fields).collect::<Vec<_>>()
        );

        let mut e = Enc::new();
        log.encode(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 8 + 76 * want.len(), "76 bytes a row");
        let decode = |syms: &SymTables| {
            let mut d = Dec::new(&bytes);
            let mut back = ProfileLog::new();
            for _ in 0..d.u64()? {
                back.push_row(ProfileRow::decode(&mut d, syms)?);
            }
            d.finish().map(|()| back)
        };
        assert_eq!(decode(&syms).unwrap(), log);
        // A symbol past either table is refused, never resolved.
        let mut short = syms.clone();
        short.profile = Interner::new();
        assert!(decode(&short).is_err());
        short = syms.clone();
        short.pkg = Interner::new();
        assert!(decode(&short).is_err());
    }
}
