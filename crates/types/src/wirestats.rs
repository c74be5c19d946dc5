//! Wire-path counters.
//!
//! The zero-copy fast path (netsim delivery → TLS records → HTTP views
//! → streaming JSON) is justified by *measured* allocation behaviour,
//! so every layer reports what it did with its buffers here, into the
//! book its world's network owns (`Network::wire`). Counters are
//! relaxed atomics: they never synchronize the simulation (only totals
//! are reported) and cannot perturb determinism because no simulated
//! decision reads them.
//!
//! The type sits in `iiscope-types` because the bottom of the stack
//! (`iiscope-netsim`) owns the book and must not depend on the protocol
//! crates above it.

crate::counters! {
    /// The wire-path counter book.
    pub struct WireCounters;
    /// Payload bytes moved through netsim connection delivery.
    bytes_delivered / add_bytes_delivered / "bytes_delivered";
    /// Delivery buffers handed to a session as a single shared slab
    /// (zero-copy: the receiver reuses the sender's allocation).
    buffers_reused / add_buffers_reused / "delivery_buffers_reused";
    /// Delivery buffers that had to be coalesced from multiple
    /// segments (one copy to linearize residue + new bytes).
    buffers_coalesced / add_buffers_coalesced / "delivery_buffers_coalesced";
    /// TLS records sealed (client→wire and server→wire).
    records_sealed / add_records_sealed / "tls_records_sealed";
    /// TLS records opened (wire→plaintext).
    records_opened / add_records_opened / "tls_records_opened";
    /// Plaintext bytes framed into TLS records.
    bytes_sealed / add_bytes_sealed / "tls_bytes_sealed";
    /// Plaintext record payloads passed through without coalescing
    /// (single-record turns: the decrypt buffer IS the app payload).
    record_passthrough / add_record_passthrough / "tls_single_record_passthrough";
    /// HTTP messages parsed through the borrowed-view fast path
    /// (no per-header `String`, body stays a slice of the delivery
    /// buffer).
    http_view_parses / add_http_view_parses / "http_view_parses";
    /// JSON events the offer-wall parsers (`parse_wall`, `probe_wall`)
    /// pulled from their scanner, added once per call from the
    /// scanner's tally. `Json::parse` runs on the same scanner but
    /// counts nothing here.
    json_events / add_json_events / "json_scanner_events";
    /// Offer-wall pages parsed via the streaming scanner.
    walls_streamed / add_walls_streamed / "walls_streamed";
    /// Offers extracted by the streaming wall parser.
    offers_streamed / add_offers_streamed / "offers_streamed";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_increments_in_order() {
        let c = WireCounters::new();
        c.add_bytes_delivered(10);
        c.add_buffers_reused(2);
        c.add_offers_streamed(7);
        let snap = c.snapshot();
        assert_eq!(snap[0], ("bytes_delivered", 10));
        assert_eq!(snap[1], ("delivery_buffers_reused", 2));
        assert_eq!(snap.last().unwrap(), &("offers_streamed", 7));
    }
}
