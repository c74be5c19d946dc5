//! The profile crawl log: one fixed-size row per crawled profile.
//!
//! §4.2's longitudinal crawl revisits every app on each crawl day, so
//! the log grows with apps × crawl days while its strings hardly grow
//! at all: an app's title, genre and developer identity repeat on every
//! crawl. Each crawl is therefore kept as an 80-byte [`ProfileRow`]
//! whose strings are symbols. The package is a symbol of the caller's
//! package table (the dataset's, shared with offers and charts); the
//! title, genre and developer strings are symbols of the log's own
//! table. Numeric fields keep their full `u64`/`f64` values.
//!
//! Rows live in a [`Chunked`] store, so the log never copies its
//! history to grow and its slack is at most one chunk. Each package's
//! crawls form a day-ordered chain through the rows (the `next` link
//! fills the row's alignment padding), so a package's series costs no
//! index beyond its first and last row.
//!
//! Readers get [`ProfileFields`]: decoded crawls whose strings borrow
//! the symbol tables. The same fields are the profile codec, so a
//! snapshot's PROFILES section holds the bytes owned
//! [`ProfileSnapshot`](crate::ProfileSnapshot)s would have written.

use crate::spill::ProfileFields;
use iiscope_types::frame::{Dec, Enc, FrameError};
use iiscope_types::{Chunked, Interner, Sym, SymMap};

/// The `next` link of a package's latest crawl.
const END: u32 = u32::MAX;

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

/// The profile crawl log. Packages resolve through a package table the
/// caller keeps and passes to the readers; everything else resolves
/// through the log's own string table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileLog {
    /// Rows in arrival order.
    rows: Chunked<ProfileRow>,
    /// Title, genre and developer strings. Never checkpointed: pushing
    /// the rows in log order rebuilds it.
    strings: Interner,
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
    /// the readers are given. The package's series stays day-sorted;
    /// equal days keep arrival order.
    pub fn push(&mut self, package: Sym, p: ProfileFields<'_>) {
        let idx = u32::try_from(self.rows.len())
            .ok()
            .filter(|&i| i != END)
            .expect("profile log overflow");
        // A package's strings rarely change between crawls, so each is
        // compared with the package's latest row before it is hashed.
        let last = self
            .series
            .get(package)
            .map(|&(_, tail)| self.rows[tail as usize]);
        let strings = &mut self.strings;
        let mut sym = |prev: Option<Sym>, s: &str| match prev {
            Some(prev) if strings.resolve(prev) == s => prev,
            _ => strings.intern(s),
        };
        let row = ProfileRow {
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
        };
        self.rows.push(row);
        self.link(package, idx, p.day);
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

    fn fields<'a>(&'a self, r: &ProfileRow, packages: &'a Interner) -> ProfileFields<'a> {
        let s = |sym| self.strings.resolve(sym);
        ProfileFields {
            day: r.day,
            package: packages.resolve(r.package),
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

    /// Every crawl in arrival order, packages resolved through
    /// `packages` (exact-sized).
    pub fn iter<'a>(
        &'a self,
        packages: &'a Interner,
    ) -> impl ExactSizeIterator<Item = ProfileFields<'a>> + 'a {
        self.rows.iter().map(move |r| self.fields(r, packages))
    }

    /// `package`'s crawls, day-ascending (equal days in arrival order).
    pub(crate) fn series<'a>(
        &'a self,
        package: Sym,
        packages: &'a Interner,
    ) -> Vec<ProfileFields<'a>> {
        let mut out = Vec::new();
        let mut at = self.series.get(package).map_or(END, |&(head, _)| head);
        while at != END {
            let r = &self.rows[at as usize];
            out.push(self.fields(r, packages));
            at = r.next;
        }
        out
    }

    /// `package`'s earliest crawl (the first of equal days).
    pub(crate) fn first<'a>(
        &'a self,
        package: Sym,
        packages: &'a Interner,
    ) -> Option<ProfileFields<'a>> {
        let &(head, _) = self.series.get(package)?;
        Some(self.fields(&self.rows[head as usize], packages))
    }

    /// One past the highest package symbol the log names: a package
    /// table the log is read through must hold at least this many.
    pub(crate) fn package_span(&self) -> usize {
        self.series.slot_count()
    }

    /// Writes the log as a snapshot section body: the row count, then
    /// each crawl's codec bytes in arrival order, packages resolved
    /// through `packages`.
    pub(crate) fn encode(&self, packages: &Interner, e: &mut Enc) {
        e.u64(self.len() as u64);
        self.iter(packages).for_each(|p| p.enc(e));
    }

    /// Decodes a section body written by [`ProfileLog::encode`]
    /// straight into rows, looking each package up in `packages` and
    /// rebuilding the string table in log order.
    pub fn decode(d: &mut Dec<'_>, packages: &Interner) -> Result<ProfileLog, FrameError> {
        let n = d.u64()?;
        let mut log = ProfileLog::new();
        for _ in 0..n {
            let p = ProfileFields::dec(d)?;
            let package = packages
                .get(p.package)
                .ok_or(FrameError::Codec("profile of a package missing from SYMS"))?;
            log.push(package, p);
        }
        Ok(log)
    }

    /// Heap bytes behind the log: the row store, the string table and
    /// the per-package chain ends.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.strings.heap_bytes() + self.series.heap_bytes()
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
        let mut packages = Interner::new();
        let a = packages.intern("com.a");
        let b = packages.intern("com.b");
        let mut log = ProfileLog::new();
        // Out-of-order days and a repeated day (arrival order wins).
        for (day, pkg, n) in [(14, a, 1), (10, a, 2), (12, b, 3), (12, a, 4), (12, a, 5)] {
            let s = snap(day, packages.resolve(pkg), n);
            log.push(pkg, s.fields());
        }
        let series = |p| -> Vec<(u64, u64)> {
            log.series(p, &packages)
                .iter()
                .map(|f| (f.day, f.min_installs))
                .collect()
        };
        assert_eq!(series(a), vec![(10, 2), (12, 4), (12, 5), (14, 1)]);
        assert_eq!(series(b), vec![(12, 3)]);
        assert_eq!(log.first(a, &packages).unwrap().min_installs, 2);
        assert!(log.first(Sym(9), &packages).is_none());
        assert_eq!(log.iter(&packages).len(), 5);
        assert_eq!(
            log.iter(&packages)
                .map(|f| f.min_installs)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn rows_span_chunks_and_decode_back() {
        let mut packages = Interner::new();
        let want: Vec<ProfileSnapshot> = (0..Chunked::<ProfileRow>::ROWS as u64 * 3 + 7)
            .map(|k| {
                let mut s = snap(k / 40, &format!("com.app{}", k % 40), k);
                s.developer_website = format!("https://dev{}.example", k % 3);
                s
            })
            .collect();
        let mut log = ProfileLog::new();
        for s in &want {
            log.push(packages.intern(&s.package), s.fields());
        }
        let got: Vec<ProfileFields> = log.iter(&packages).collect();
        assert_eq!(
            got,
            want.iter().map(ProfileSnapshot::fields).collect::<Vec<_>>()
        );

        let mut e = Enc::new();
        log.encode(&packages, &mut e);
        let bytes = e.into_bytes();
        let back = ProfileLog::decode(&mut Dec::new(&bytes), &packages).unwrap();
        assert_eq!(back, log);
        // A package the table does not hold is refused, not minted.
        assert!(ProfileLog::decode(&mut Dec::new(&bytes), &Interner::new()).is_err());
    }
}
