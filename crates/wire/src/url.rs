//! Minimal URL handling for the HTTP client and the offer records.
//!
//! Offers carry "the advertised app's Google Play Store profile"
//! as a URL (§4.1), and the crawler follows `https://play.iiscope/...`
//! style links, so we need just enough URL machinery: scheme, host,
//! optional port, path+query.

use iiscope_types::{Error, Result};
use std::fmt;

/// A parsed URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Hostname (no IP literal support needed by the pipeline).
    pub host: String,
    /// Explicit port if present.
    pub port: Option<u16>,
    /// Path plus optional query, always starting with `/`.
    pub target: String,
}

impl Url {
    /// Parses a URL of the form `scheme://host[:port][/path][?query][#fragment]`.
    ///
    /// The authority ends at the first `/`, `?` or `#` (RFC 3986
    /// §3.2), so `https://h?q` has host `h` and target `/?q`. The
    /// fragment is dropped: it is never part of a request target.
    pub fn parse(s: &str) -> Result<Url> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| Error::Decode(format!("missing scheme in {s:?}")))?;
        if scheme != "http" && scheme != "https" {
            return Err(Error::Decode(format!("unsupported scheme {scheme:?}")));
        }
        let rest = rest.split_once('#').map_or(rest, |(before, _)| before);
        let (authority, path) = rest.split_at(rest.find(['/', '?']).unwrap_or(rest.len()));
        let target = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        if authority.is_empty() {
            return Err(Error::Decode(format!("missing host in {s:?}")));
        }
        let (host, port) = match authority.split_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .map_err(|_| Error::Decode(format!("bad port in {s:?}")))?;
                (h.to_string(), Some(port))
            }
            None => (authority.to_string(), None),
        };
        if host.is_empty() {
            return Err(Error::Decode(format!("missing host in {s:?}")));
        }
        Ok(Url {
            scheme: scheme.to_string(),
            host,
            port,
            target,
        })
    }

    /// True for `https`.
    pub fn is_tls(&self) -> bool {
        self.scheme == "https"
    }

    /// Port to connect to (explicit, or 443/80 by scheme).
    pub fn effective_port(&self) -> u16 {
        self.port.unwrap_or(self.default_port())
    }

    fn default_port(&self) -> u16 {
        if self.is_tls() {
            443
        } else {
            80
        }
    }

    /// The `Host` header value (RFC 9110 §7.2): the host, plus the port
    /// when it is not the scheme's default.
    pub fn authority(&self) -> String {
        match self.port {
            Some(p) if p != self.default_port() => format!("{}:{p}", self.host),
            _ => self.host.clone(),
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_variants() {
        let u = Url::parse("https://play.iiscope/store/apps?id=com.x.y").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "play.iiscope");
        assert_eq!(u.port, None);
        assert_eq!(u.effective_port(), 443);
        assert_eq!(u.target, "/store/apps?id=com.x.y");
        assert!(u.is_tls());

        let u = Url::parse("http://collector:8080").unwrap();
        assert_eq!(u.effective_port(), 8080);
        assert_eq!(u.target, "/");
        assert!(!u.is_tls());
    }

    #[test]
    fn authority_ends_at_query_or_fragment() {
        let u = Url::parse("https://play.iiscope?id=x").unwrap();
        assert_eq!(u.host, "play.iiscope");
        assert_eq!(u.port, None);
        assert_eq!(u.target, "/?id=x");

        let u = Url::parse("http://h:80?x").unwrap();
        assert_eq!(u.host, "h");
        assert_eq!(u.port, Some(80));
        assert_eq!(u.target, "/?x");

        let u = Url::parse("http://h:81#top").unwrap();
        assert_eq!((u.host.as_str(), u.port), ("h", Some(81)));
        assert_eq!(u.target, "/");

        let u = Url::parse("https://a.b/c?d=e#frag").unwrap();
        assert_eq!(u.target, "/c?d=e");

        // A `?` or `#` after the path belongs to the target, not the host.
        let u = Url::parse("https://a.b/x?next=http://c:9/").unwrap();
        assert_eq!(u.host, "a.b");
        assert_eq!(u.target, "/x?next=http://c:9/");
    }

    #[test]
    fn authority_names_only_non_default_ports() {
        let host = |s: &str| Url::parse(s).unwrap().authority();
        assert_eq!(host("http://h/x"), "h");
        assert_eq!(host("http://h:80/x"), "h");
        assert_eq!(host("http://h:8080/x"), "h:8080");
        assert_eq!(host("https://h:443/"), "h");
        assert_eq!(host("https://h:80/"), "h:80");
        assert_eq!(host("https://h:8443?q"), "h:8443");
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "https://a.b/c?d=e",
            "http://host:81/",
            "https://wall.fyber.iiscope/offers?country=DE",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "no-scheme.example/x",
            "ftp://files.example/x",
            "https://",
            "https://:443/x",
            "http://host:notaport/",
            "https://?q",
            "https://#f",
            "http://:80?x",
        ] {
            assert!(Url::parse(bad).is_err(), "{bad:?}");
        }
    }
}
