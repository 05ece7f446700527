//! The length-prefixed binary protocol and per-connection framing.
//!
//! JSON-lines is the readable default; this module adds a binary option
//! carrying the *same* [`Request`]/[`Response`] model with u64-exact
//! integers (values travel as little-endian words, never through decimal
//! text) and cheap, allocation-light parsing.
//!
//! ## Negotiation
//!
//! The protocol is chosen per connection by its very first bytes. A
//! binary client opens with the 4-byte magic `"REB1"`; anything else —
//! in particular `{`, the first byte of every JSON-lines request — keeps
//! the connection on JSON-lines. A prefix of the magic with no newline
//! yet is ambiguous ("RE" could become "REB1"), so negotiation reports
//! [`Negotiation::NeedMore`] until either the magic completes, a byte
//! diverges, or a newline proves the line was meant for the JSON parser.
//!
//! ## Framing
//!
//! After the magic, both directions speak frames: a little-endian `u32`
//! payload length followed by the payload (one encoded request or
//! response). Lengths above [`MAX_FRAME_LEN`] are rejected before any
//! allocation — a corrupt or hostile length prefix cannot balloon
//! memory, and since framing cannot resync after a bad prefix the
//! connection is torn down with a final error frame.
//!
//! Payload encoding is a `u8` tag plus fields in declaration order:
//! integers little-endian, strings and rows length-prefixed with `u32`
//! counts. Encode/decode are exact inverses for every variant (see the
//! round-trip tests here and the property fuzz in
//! `tests/transport_equivalence.rs`).

use crate::protocol::{Request, Response, StatsReport, TransportCounters, WorkerCounters};
use rankedenum_core::StatsSnapshot;
use re_storage::Tuple;

/// First bytes of a binary-protocol connection.
pub const BINARY_MAGIC: [u8; 4] = *b"REB1";

/// Hard cap on one frame's payload (64 MiB): big enough for any page or
/// metrics body the server produces, small enough that a corrupt length
/// prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The wire protocol one connection speaks, fixed at negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireProtocol {
    /// One JSON object per `\n`-terminated line.
    Json,
    /// Length-prefixed binary frames (after the `"REB1"` magic).
    Binary,
}

/// Outcome of inspecting a connection's first bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Negotiation {
    /// Too few bytes to decide (a strict prefix of the magic).
    NeedMore,
    /// JSON-lines — the bytes are not the binary magic.
    Json,
    /// The binary magic arrived; the caller must consume its 4 bytes.
    Binary,
}

/// Decide the protocol from the first buffered bytes.
pub fn negotiate(pending: &[u8]) -> Negotiation {
    if pending.is_empty() {
        return Negotiation::NeedMore;
    }
    let probe = pending.len().min(BINARY_MAGIC.len());
    if pending[..probe] != BINARY_MAGIC[..probe] {
        return Negotiation::Json;
    }
    if pending.len() >= BINARY_MAGIC.len() {
        return Negotiation::Binary;
    }
    // A strict prefix of the magic. A newline proves it was a (malformed)
    // JSON line after all — don't stall a line-oriented client forever.
    if pending.contains(&b'\n') {
        Negotiation::Json
    } else {
        Negotiation::NeedMore
    }
}

/// Split one complete binary frame's payload off the front of `pending`.
///
/// `Ok(None)` means more bytes are needed; `Err` is unrecoverable (the
/// length prefix exceeded [`MAX_FRAME_LEN`], after which no frame
/// boundary can be trusted).
pub fn split_frame(pending: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    if pending.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        ));
    }
    if pending.len() < 4 + len {
        return Ok(None);
    }
    let payload = pending[4..4 + len].to_vec();
    pending.drain(..4 + len);
    Ok(Some(payload))
}

/// Append `payload` to `out` as one length-prefixed frame.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------
// Payload encoding primitives.
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_strings(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Tuple]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for &v in row.iter() {
            put_u64(out, v);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("truncated payload".to_string());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid boolean byte {other}")),
        }
    }

    /// A `u32` element count, sanity-bounded by the bytes actually
    /// present (each element needs at least `min_elem_bytes`), so a
    /// corrupt count cannot pre-allocate gigabytes.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let available = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > available {
            return Err(format!("element count {n} exceeds the payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_string())
    }

    fn strings(&mut self) -> Result<Vec<String>, String> {
        let n = self.count(4)?;
        (0..n).map(|_| self.str()).collect()
    }

    fn rows(&mut self) -> Result<Vec<Tuple>, String> {
        let n = self.count(4)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let width = self.count(8)?;
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(self.u64()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Request payloads.
// ---------------------------------------------------------------------

const REQ_OPEN: u8 = 1;
const REQ_FETCH: u8 = 2;
const REQ_CLOSE: u8 = 3;
const REQ_CANCEL: u8 = 4;
const REQ_QUERY: u8 = 5;
const REQ_EXPLAIN: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_METRICS: u8 = 8;
const REQ_CATALOG: u8 = 9;
const REQ_PING: u8 = 10;

/// Encode one request as a binary payload (no frame prefix).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Open {
            db,
            sql,
            deadline_millis,
        } => {
            out.push(REQ_OPEN);
            put_str(&mut out, db);
            put_str(&mut out, sql);
            put_bool(&mut out, deadline_millis.is_some());
            put_u64(&mut out, deadline_millis.unwrap_or(0));
        }
        Request::Fetch { session, k } => {
            out.push(REQ_FETCH);
            put_u64(&mut out, *session);
            put_u64(&mut out, *k);
        }
        Request::Close { session } => {
            out.push(REQ_CLOSE);
            put_u64(&mut out, *session);
        }
        Request::Cancel { session } => {
            out.push(REQ_CANCEL);
            put_u64(&mut out, *session);
        }
        Request::Query { db, sql } => {
            out.push(REQ_QUERY);
            put_str(&mut out, db);
            put_str(&mut out, sql);
        }
        Request::Explain { db, sql, analyze } => {
            out.push(REQ_EXPLAIN);
            put_str(&mut out, db);
            put_str(&mut out, sql);
            put_bool(&mut out, *analyze);
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Metrics => out.push(REQ_METRICS),
        Request::Catalog => out.push(REQ_CATALOG),
        Request::Ping => out.push(REQ_PING),
    }
    out
}

/// Decode one request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(payload);
    let request = match r.u8()? {
        REQ_OPEN => {
            let db = r.str()?;
            let sql = r.str()?;
            let has_deadline = r.bool()?;
            let deadline = r.u64()?;
            Request::Open {
                db,
                sql,
                deadline_millis: has_deadline.then_some(deadline),
            }
        }
        REQ_FETCH => Request::Fetch {
            session: r.u64()?,
            k: r.u64()?,
        },
        REQ_CLOSE => Request::Close { session: r.u64()? },
        REQ_CANCEL => Request::Cancel { session: r.u64()? },
        REQ_QUERY => Request::Query {
            db: r.str()?,
            sql: r.str()?,
        },
        REQ_EXPLAIN => Request::Explain {
            db: r.str()?,
            sql: r.str()?,
            analyze: r.bool()?,
        },
        REQ_STATS => Request::Stats,
        REQ_METRICS => Request::Metrics,
        REQ_CATALOG => Request::Catalog,
        REQ_PING => Request::Ping,
        other => return Err(format!("unknown request tag {other}")),
    };
    r.finish()?;
    Ok(request)
}

// ---------------------------------------------------------------------
// Response payloads.
// ---------------------------------------------------------------------

const RESP_OPENED: u8 = 1;
const RESP_PAGE: u8 = 2;
const RESP_CLOSED: u8 = 3;
const RESP_CANCELLED: u8 = 4;
const RESP_RESULT: u8 = 5;
const RESP_EXPLAINED: u8 = 6;
const RESP_STATS: u8 = 7;
const RESP_METRICS: u8 = 8;
const RESP_CATALOG: u8 = 9;
const RESP_PONG: u8 = 10;
const RESP_ERROR: u8 = 11;

fn put_stats(out: &mut Vec<u8>, report: &StatsReport) {
    put_u64(out, report.sessions_open);
    put_u64(out, report.sessions_opened);
    put_u64(out, report.sessions_evicted);
    put_u64(out, report.sessions_evicted_budget);
    put_u64(out, report.sessions_evicted_idle);
    put_u64(out, report.session_budget_bytes);
    put_u64(out, report.session_bytes_parked);
    put_u64(out, report.enumerators_built);
    put_u64(out, report.plan_cache_hits);
    put_u64(out, report.plan_cache_misses);
    put_u64(out, report.plan_cache_size);
    put_u64(out, report.prepared_built);
    put_u64(out, report.prepared_reused);
    put_u64(out, report.prepared_bytes);
    put_u64(out, report.prepared_evicted);
    put_u64(out, report.exec_pool_threads);
    put_str(out, &report.ghd_last_plan);
    let e = &report.enumeration;
    for v in [
        e.pq_pushes,
        e.pq_pops,
        e.cells_created,
        e.cells_reused,
        e.answers,
        e.tuple_allocs,
        e.frontier_bytes,
        e.frontier_peak_bytes,
        e.ghd_bags,
        e.ghd_estimated_rows,
        e.ghd_fallbacks,
        e.reduce_passes,
        e.reduce_input_rows,
        e.reduce_output_rows,
        e.pool_tasks,
        e.pool_steals,
        e.pool_busy_micros,
        e.requests_shed,
        e.deadline_exceeded,
        e.cancelled,
        e.faults_injected,
    ] {
        put_u64(out, v);
    }
    let t = &report.transport;
    for v in [
        t.epoll_waits,
        t.wakeups,
        t.bytes_in,
        t.bytes_out,
        t.conns_accepted,
        t.disconnects,
    ] {
        put_u64(out, v);
    }
    put_u32(out, report.per_worker.len() as u32);
    for w in &report.per_worker {
        put_u64(out, w.tasks);
        put_u64(out, w.steals);
        put_u64(out, w.busy_micros);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<StatsReport, String> {
    let sessions_open = r.u64()?;
    let sessions_opened = r.u64()?;
    let sessions_evicted = r.u64()?;
    let sessions_evicted_budget = r.u64()?;
    let sessions_evicted_idle = r.u64()?;
    let session_budget_bytes = r.u64()?;
    let session_bytes_parked = r.u64()?;
    let enumerators_built = r.u64()?;
    let plan_cache_hits = r.u64()?;
    let plan_cache_misses = r.u64()?;
    let plan_cache_size = r.u64()?;
    let prepared_built = r.u64()?;
    let prepared_reused = r.u64()?;
    let prepared_bytes = r.u64()?;
    let prepared_evicted = r.u64()?;
    let exec_pool_threads = r.u64()?;
    let ghd_last_plan = r.str()?;
    let enumeration = StatsSnapshot {
        pq_pushes: r.u64()?,
        pq_pops: r.u64()?,
        cells_created: r.u64()?,
        cells_reused: r.u64()?,
        answers: r.u64()?,
        tuple_allocs: r.u64()?,
        frontier_bytes: r.u64()?,
        frontier_peak_bytes: r.u64()?,
        ghd_bags: r.u64()?,
        ghd_estimated_rows: r.u64()?,
        ghd_fallbacks: r.u64()?,
        reduce_passes: r.u64()?,
        reduce_input_rows: r.u64()?,
        reduce_output_rows: r.u64()?,
        pool_tasks: r.u64()?,
        pool_steals: r.u64()?,
        pool_busy_micros: r.u64()?,
        requests_shed: r.u64()?,
        deadline_exceeded: r.u64()?,
        cancelled: r.u64()?,
        faults_injected: r.u64()?,
    };
    let transport = TransportCounters {
        epoll_waits: r.u64()?,
        wakeups: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        conns_accepted: r.u64()?,
        disconnects: r.u64()?,
    };
    let n = r.count(24)?;
    let per_worker = (0..n)
        .map(|_| {
            Ok(WorkerCounters {
                tasks: r.u64()?,
                steals: r.u64()?,
                busy_micros: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(StatsReport {
        sessions_open,
        sessions_opened,
        sessions_evicted,
        sessions_evicted_budget,
        sessions_evicted_idle,
        session_budget_bytes,
        session_bytes_parked,
        enumerators_built,
        plan_cache_hits,
        plan_cache_misses,
        plan_cache_size,
        prepared_built,
        prepared_reused,
        prepared_bytes,
        prepared_evicted,
        exec_pool_threads,
        ghd_last_plan,
        enumeration,
        transport,
        per_worker,
    })
}

/// Encode one response as a binary payload (no frame prefix).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Opened {
            session,
            columns,
            algorithm,
            plan_cached,
        } => {
            out.push(RESP_OPENED);
            put_u64(&mut out, *session);
            put_strings(&mut out, columns);
            put_str(&mut out, algorithm);
            put_bool(&mut out, *plan_cached);
        }
        Response::Page { rows, exhausted } => {
            out.push(RESP_PAGE);
            put_rows(&mut out, rows);
            put_bool(&mut out, *exhausted);
        }
        Response::Closed { existed } => {
            out.push(RESP_CLOSED);
            put_bool(&mut out, *existed);
        }
        Response::Cancelled { existed } => {
            out.push(RESP_CANCELLED);
            put_bool(&mut out, *existed);
        }
        Response::Result {
            columns,
            rows,
            algorithm,
            plan_cached,
        } => {
            out.push(RESP_RESULT);
            put_strings(&mut out, columns);
            put_rows(&mut out, rows);
            put_str(&mut out, algorithm);
            put_bool(&mut out, *plan_cached);
        }
        Response::Explained { text } => {
            out.push(RESP_EXPLAINED);
            put_str(&mut out, text);
        }
        Response::Stats(report) => {
            out.push(RESP_STATS);
            put_stats(&mut out, report);
        }
        Response::Metrics { body } => {
            out.push(RESP_METRICS);
            put_str(&mut out, body);
        }
        Response::Catalog { databases } => {
            out.push(RESP_CATALOG);
            put_strings(&mut out, databases);
        }
        Response::Pong => out.push(RESP_PONG),
        Response::Error {
            message,
            code,
            retry_after_millis,
        } => {
            out.push(RESP_ERROR);
            put_str(&mut out, message);
            put_str(&mut out, code);
            put_bool(&mut out, retry_after_millis.is_some());
            put_u64(&mut out, retry_after_millis.unwrap_or(0));
        }
    }
    out
}

/// Decode one response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut r = Reader::new(payload);
    let response = match r.u8()? {
        RESP_OPENED => Response::Opened {
            session: r.u64()?,
            columns: r.strings()?,
            algorithm: r.str()?,
            plan_cached: r.bool()?,
        },
        RESP_PAGE => Response::Page {
            rows: r.rows()?,
            exhausted: r.bool()?,
        },
        RESP_CLOSED => Response::Closed { existed: r.bool()? },
        RESP_CANCELLED => Response::Cancelled { existed: r.bool()? },
        RESP_RESULT => Response::Result {
            columns: r.strings()?,
            rows: r.rows()?,
            algorithm: r.str()?,
            plan_cached: r.bool()?,
        },
        RESP_EXPLAINED => Response::Explained { text: r.str()? },
        RESP_STATS => Response::Stats(Box::new(read_stats(&mut r)?)),
        RESP_METRICS => Response::Metrics { body: r.str()? },
        RESP_CATALOG => Response::Catalog {
            databases: r.strings()?,
        },
        RESP_PONG => Response::Pong,
        RESP_ERROR => {
            let message = r.str()?;
            let code = r.str()?;
            let has_retry = r.bool()?;
            let retry = r.u64()?;
            Response::Error {
                message,
                code,
                retry_after_millis: has_retry.then_some(retry),
            }
        }
        other => return Err(format!("unknown response tag {other}")),
    };
    r.finish()?;
    Ok(response)
}

/// Append one encoded response to `out` in the connection's protocol:
/// a JSON line (with its `\n`) or a binary frame.
pub fn append_response(protocol: WireProtocol, response: &Response, out: &mut Vec<u8>) {
    match protocol {
        WireProtocol::Json => {
            out.extend_from_slice(response.encode().as_bytes());
            out.push(b'\n');
        }
        WireProtocol::Binary => append_frame(out, &encode_response(response)),
    }
}

/// One parsed inbound item, protocol-independent.
#[derive(Debug, PartialEq)]
pub enum InboundItem {
    /// A well-formed request, ready for dispatch.
    Request(Request),
    /// A malformed request that still left framing intact (bad JSON on a
    /// complete line, a bad payload inside a complete frame): answer with
    /// this error and keep the connection.
    Malformed(String),
}

/// Extract the next complete inbound item from `pending`, or `Ok(None)`
/// when more bytes are needed. `Err` means framing itself is broken
/// (oversized binary length prefix): answer with a final error and close.
pub fn next_inbound(
    protocol: WireProtocol,
    pending: &mut Vec<u8>,
) -> Result<Option<InboundItem>, String> {
    match protocol {
        WireProtocol::Json => loop {
            let Some(newline) = pending.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let line_bytes: Vec<u8> = pending.drain(..=newline).collect();
            match std::str::from_utf8(&line_bytes) {
                Ok(line) if line.trim().is_empty() => continue, // blank keep-alive line
                Ok(line) => {
                    return Ok(Some(match Request::decode(line.trim()) {
                        Ok(request) => InboundItem::Request(request),
                        Err(message) => InboundItem::Malformed(message),
                    }))
                }
                Err(_) => {
                    return Ok(Some(InboundItem::Malformed(
                        "request line is not valid UTF-8".to_string(),
                    )))
                }
            }
        },
        WireProtocol::Binary => match split_frame(pending)? {
            None => Ok(None),
            Some(payload) => Ok(Some(match decode_request(&payload) {
                Ok(request) => InboundItem::Request(request),
                Err(message) => InboundItem::Malformed(message),
            })),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
                deadline_millis: None,
            },
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
                deadline_millis: Some(1500),
            },
            Request::Fetch {
                session: u64::MAX,
                k: 10,
            },
            Request::Close { session: 7 },
            Request::Cancel { session: 9 },
            Request::Query {
                db: "d".into(),
                sql: "SELECT DISTINCT a FROM T".into(),
            },
            Request::Explain {
                db: "d".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a".into(),
                analyze: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::Catalog,
            Request::Ping,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Opened {
                session: 3,
                columns: vec!["a1".into(), "a2".into()],
                algorithm: "acyclic".into(),
                plan_cached: true,
            },
            Response::Page {
                // u64-exact: values beyond 2^53 survive, unlike any
                // float-backed JSON implementation.
                rows: vec![vec![u64::MAX, 2], vec![3, 1 << 60]],
                exhausted: false,
            },
            Response::Closed { existed: true },
            Response::Cancelled { existed: false },
            Response::Result {
                columns: vec!["x".into()],
                rows: vec![vec![9]],
                algorithm: "union-merge".into(),
                plan_cached: false,
            },
            Response::Explained {
                text: "EXPLAIN\nstatement: join-project (2 atoms)\n".into(),
            },
            Response::Stats(Box::new(StatsReport {
                sessions_open: 1,
                sessions_opened: 2,
                prepared_built: 3,
                prepared_reused: 4,
                prepared_bytes: 5,
                prepared_evicted: 6,
                ghd_last_plan: "cycle-split(0,3) over 6 atoms".into(),
                transport: TransportCounters {
                    epoll_waits: 11,
                    wakeups: 12,
                    bytes_in: 13,
                    bytes_out: 14,
                    conns_accepted: 15,
                    disconnects: 16,
                },
                per_worker: vec![WorkerCounters {
                    tasks: 30,
                    steals: 31,
                    busy_micros: 32,
                }],
                ..StatsReport::default()
            })),
            Response::Metrics {
                body: "# TYPE re_sessions_open gauge\nre_sessions_open 1\n".into(),
            },
            Response::Catalog {
                databases: vec!["a".into(), "b".into()],
            },
            Response::Pong,
            Response::error("boom"),
            Response::overloaded("too busy", 250),
            Response::error_coded("query deadline exceeded", "deadline_exceeded"),
        ]
    }

    #[test]
    fn requests_roundtrip_binary() {
        for req in sample_requests() {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip_binary() {
        for resp in sample_responses() {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn negotiation_decides_from_first_bytes() {
        assert_eq!(negotiate(b""), Negotiation::NeedMore);
        assert_eq!(negotiate(b"R"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"RE"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"REB"), Negotiation::NeedMore);
        assert_eq!(negotiate(b"REB1"), Negotiation::Binary);
        assert_eq!(negotiate(b"REB1\x05\x00\x00\x00"), Negotiation::Binary);
        assert_eq!(negotiate(b"{\"cmd\":\"ping\"}"), Negotiation::Json);
        assert_eq!(negotiate(b" "), Negotiation::Json);
        assert_eq!(negotiate(b"REX"), Negotiation::Json, "diverged from magic");
        // A newline resolves a stalled magic prefix to JSON: a line
        // client that sent "RE\n" gets an error line, not a hang.
        assert_eq!(negotiate(b"RE\n"), Negotiation::Json);
    }

    #[test]
    fn frames_split_and_reassemble() {
        let mut wire = Vec::new();
        append_frame(&mut wire, b"abc");
        append_frame(&mut wire, b"");
        append_frame(&mut wire, b"defg");
        let mut pending = Vec::new();
        let mut got = Vec::new();
        // Feed one byte at a time: frames must reassemble across
        // arbitrarily split reads.
        for byte in wire {
            pending.push(byte);
            while let Some(p) = split_frame(&mut pending).unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"".to_vec(), b"defg".to_vec()]);
        assert!(pending.is_empty());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut pending = (u32::MAX).to_le_bytes().to_vec();
        pending.extend_from_slice(b"junk");
        assert!(split_frame(&mut pending).is_err());
        let mut pending = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        assert!(split_frame(&mut pending).is_err());
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        for req in sample_requests() {
            let full = encode_request(&req);
            for cut in 0..full.len() {
                assert!(
                    decode_request(&full[..cut]).is_err(),
                    "truncated {req:?} at {cut} must not decode"
                );
            }
        }
        for resp in sample_responses() {
            let full = encode_response(&resp);
            for cut in 0..full.len() {
                assert!(
                    decode_response(&full[..cut]).is_err(),
                    "truncated response at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Request::Ping);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn corrupt_element_counts_do_not_balloon() {
        // A "columns" count of ~4 billion with a 10-byte payload must be
        // rejected by the count bound, not attempted.
        let mut payload = vec![RESP_OPENED];
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX); // columns count
        assert!(decode_response(&payload).is_err());
    }

    #[test]
    fn json_inbound_skips_blanks_and_flags_bad_lines() {
        let mut pending = b"\n  \n{\"cmd\":\"ping\"}\nnot json\n".to_vec();
        assert_eq!(
            next_inbound(WireProtocol::Json, &mut pending).unwrap(),
            Some(InboundItem::Request(Request::Ping))
        );
        match next_inbound(WireProtocol::Json, &mut pending).unwrap() {
            Some(InboundItem::Malformed(_)) => {}
            other => panic!("expected a malformed item, got {other:?}"),
        }
        assert_eq!(
            next_inbound(WireProtocol::Json, &mut pending).unwrap(),
            None
        );
    }

    #[test]
    fn binary_inbound_flags_bad_payloads_but_keeps_framing() {
        let mut pending = Vec::new();
        append_frame(&mut pending, &[200]); // unknown tag
        append_frame(&mut pending, &encode_request(&Request::Ping));
        match next_inbound(WireProtocol::Binary, &mut pending).unwrap() {
            Some(InboundItem::Malformed(_)) => {}
            other => panic!("expected a malformed item, got {other:?}"),
        }
        assert_eq!(
            next_inbound(WireProtocol::Binary, &mut pending).unwrap(),
            Some(InboundItem::Request(Request::Ping))
        );
    }
}
