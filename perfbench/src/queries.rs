//! The read-side query mix, its two transports (the wire client and an
//! in-process snapshot), and the oracle check of each answer.

use std::time::Instant;

use xarch::core::{ElementHistory, KeyQuery, RangeEntry, StoreReader, TimeSet, VersionDelta};
use xarch_proto::{read_frame, write_frame, Client, Lease, Request, Response, MAX_FRAME_LEN};

use crate::inputs::Rng;
use crate::oracle::Oracle;

#[derive(Debug, Clone)]
pub enum Query {
    History(String),
    HistoryValues(String),
    AsOf(String, u32),
    Diff(String, u32, u32),
    Range(u32, u32),
    Retrieve(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
    Retrieve,
}

impl Query {
    pub fn kind(&self) -> Kind {
        match self {
            Query::Range(..) => Kind::Range,
            Query::Retrieve(_) => Kind::Retrieve,
            _ => Kind::Point,
        }
    }

    /// Position of the query's verb in [`VERBS`].
    pub fn verb_index(&self) -> usize {
        match self {
            Query::History(_) => 0,
            Query::HistoryValues(_) => 1,
            Query::AsOf(..) => 2,
            Query::Diff(..) => 3,
            Query::Range(..) => 4,
            Query::Retrieve(_) => 5,
        }
    }

    pub fn verb(&self) -> &'static str {
        VERBS[self.verb_index()]
    }

    /// Span name of the call: over the wire, or in process through a
    /// snapshot.
    pub fn span(&self, wire: bool) -> &'static str {
        let names = if wire { WIRE_SPANS } else { SNAPSHOT_SPANS };
        names[self.verb_index()]
    }
}

pub const VERBS: [&str; 6] = [
    "history",
    "history_values",
    "as_of",
    "diff",
    "range",
    "retrieve",
];
const WIRE_SPANS: [&str; 6] = [
    "wire.history",
    "wire.history_values",
    "wire.as_of",
    "wire.diff",
    "wire.range",
    "wire.retrieve",
];
const SNAPSHOT_SPANS: [&str; 6] = [
    "snapshot.history",
    "snapshot.history_values",
    "snapshot.as_of",
    "snapshot.diff",
    "snapshot.range",
    "snapshot.retrieve",
];

/// One cycle of the closed loop: 14 of each point query, 4 range scans
/// and 4 whole-version retrieves, in a seeded order.
const CYCLE: [(usize, u8); 6] = [(14, 0), (14, 1), (14, 2), (14, 3), (4, 4), (4, 5)];

/// Zipf exponent of the key skew.
const ZIPF_S: f64 = 0.99;

/// Draws keys with Zipf skew over a seeded ranking of every key ever
/// archived, and versions biased towards the latest.
pub struct Mix {
    keys: Vec<String>,
    cdf: Vec<f64>,
    latest: u32,
}

impl Mix {
    pub fn new(mut keys: Vec<String>, latest: u32, rng: &mut Rng) -> Mix {
        rng.shuffle(&mut keys);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=keys.len())
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Mix { keys, cdf, latest }
    }

    fn key(&self, rng: &mut Rng) -> String {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[i].clone()
    }

    /// Recency bias: `latest − ⌊latest · u³⌋`, so about half the draws
    /// land in the newest fifth of the versions.
    fn version(&self, rng: &mut Rng) -> u32 {
        let back = (f64::from(self.latest) * rng.unit().powi(3)) as u32;
        (self.latest - back.min(self.latest - 1)).max(1)
    }

    pub fn cycle(&self, rng: &mut Rng) -> Vec<Query> {
        let mut out = Vec::new();
        for (count, what) in CYCLE {
            for _ in 0..count {
                out.push(match what {
                    0 => Query::History(self.key(rng)),
                    1 => Query::HistoryValues(self.key(rng)),
                    2 => Query::AsOf(self.key(rng), self.version(rng)),
                    3 => {
                        let v2 = self.version(rng);
                        let v1 = v2.saturating_sub(1 + rng.below(4) as u32).max(1);
                        Query::Diff(self.key(rng), v1, v2)
                    }
                    4 => {
                        let hi = self.version(rng);
                        Query::Range(hi.saturating_sub(rng.below(4) as u32).max(1), hi)
                    }
                    _ => Query::Retrieve(self.version(rng)),
                });
            }
        }
        rng.shuffle(&mut out);
        out
    }
}

#[derive(Debug, Clone)]
pub enum Answer {
    History(Option<TimeSet>),
    HistoryValues(Option<ElementHistory>),
    Doc(Option<String>),
    Diff(VersionDelta),
    Range(Vec<RangeEntry>),
}

impl Answer {
    /// The wire response carrying this answer.
    pub fn response(&self) -> Response {
        match self {
            Answer::History(h) => Response::History(h.clone()),
            Answer::HistoryValues(h) => Response::HistoryValues(h.clone()),
            Answer::Doc(d) => Response::Document(d.clone()),
            Answer::Diff(d) => Response::Diff(d.clone()),
            Answer::Range(r) => Response::Range(r.clone()),
        }
    }
}

/// Key-query paths into the record collection.
pub struct Paths {
    pub root: &'static str,
    pub record: &'static str,
    pub key: &'static str,
}

impl Paths {
    pub fn record(&self, key: &str) -> Vec<KeyQuery> {
        vec![
            KeyQuery::new(self.root),
            KeyQuery::new(self.record).with_text(self.key, key),
        ]
    }

    pub fn collection(&self) -> Vec<KeyQuery> {
        vec![KeyQuery::new(self.root)]
    }

    /// The wire request for `q` (lease 0: a fresh pin per request).
    pub fn request(&self, q: &Query) -> Request {
        let lease = 0;
        match q {
            Query::History(k) => Request::History {
                lease,
                steps: self.record(k),
            },
            Query::HistoryValues(k) => Request::HistoryValues {
                lease,
                steps: self.record(k),
            },
            Query::AsOf(k, v) => Request::AsOf {
                lease,
                v: *v,
                steps: self.record(k),
            },
            Query::Diff(k, v1, v2) => Request::Diff {
                lease,
                v1: *v1,
                v2: *v2,
                steps: self.record(k),
            },
            Query::Range(lo, hi) => Request::Range {
                lease,
                lo: *lo,
                hi: *hi,
                prefix: self.collection(),
            },
            Query::Retrieve(v) => Request::Retrieve { lease, v: *v },
        }
    }

    /// Asks `q` over the wire.
    pub fn over_wire(&self, client: &mut Client, q: &Query) -> Result<Answer, String> {
        let lease = Lease(0);
        let e = |e: xarch_proto::ClientError| e.to_string();
        Ok(match q {
            Query::History(k) => {
                Answer::History(client.history(lease, &self.record(k)).map_err(e)?)
            }
            Query::HistoryValues(k) => {
                Answer::HistoryValues(client.history_values(lease, &self.record(k)).map_err(e)?)
            }
            Query::AsOf(k, v) => Answer::Doc(client.as_of(lease, *v, &self.record(k)).map_err(e)?),
            Query::Diff(k, v1, v2) => {
                Answer::Diff(client.diff(lease, &self.record(k), *v1, *v2).map_err(e)?)
            }
            Query::Range(lo, hi) => Answer::Range(
                client
                    .range(lease, &self.collection(), *lo, *hi)
                    .map_err(e)?,
            ),
            Query::Retrieve(v) => Answer::Doc(client.retrieve(lease, *v).map_err(e)?),
        })
    }

    /// Asks `q` in process.
    pub fn in_process(&self, r: &dyn StoreReader, q: &Query) -> Result<Answer, String> {
        let e = |e: xarch::StoreError| e.to_string();
        let doc =
            |d: Option<xarch::xml::Document>| d.map(|d| xarch::xml::writer::to_compact_string(&d));
        Ok(match q {
            Query::History(k) => Answer::History(r.history(&self.record(k)).map_err(e)?),
            Query::HistoryValues(k) => {
                Answer::HistoryValues(r.history_values(&self.record(k)).map_err(e)?)
            }
            Query::AsOf(k, v) => Answer::Doc(doc(r.as_of(&self.record(k), *v).map_err(e)?)),
            Query::Diff(k, v1, v2) => Answer::Diff(r.diff(&self.record(k), *v1, *v2).map_err(e)?),
            Query::Range(lo, hi) => {
                Answer::Range(r.range(&self.collection(), *lo..=*hi).map_err(e)?)
            }
            Query::Retrieve(v) => {
                let mut buf = Vec::new();
                let some = r.retrieve_into(*v, &mut buf).map_err(e)?;
                Answer::Doc(some.then(|| String::from_utf8_lossy(&buf).into_owned()))
            }
        })
    }
}

/// Checks one answer against the oracle.
pub fn check(oracle: &Oracle, q: &Query, a: &Answer) -> Result<(), String> {
    match (q, a) {
        (Query::History(k), Answer::History(h)) => oracle.check_history(k, h.as_ref()),
        (Query::HistoryValues(k), Answer::HistoryValues(h)) => {
            oracle.check_history_values(k, h.as_ref())
        }
        (Query::AsOf(k, v), Answer::Doc(d)) => oracle.check_as_of(k, *v, d.as_deref()),
        (Query::Diff(k, v1, v2), Answer::Diff(d)) => oracle.check_diff(k, *v1, *v2, d),
        (Query::Range(lo, hi), Answer::Range(r)) => oracle.check_range(*lo, *hi, r),
        (Query::Retrieve(v), Answer::Doc(Some(xml))) => oracle.check_version(*v, xml),
        (Query::Retrieve(v), Answer::Doc(None)) => Err(format!("version {v} retrieved as empty")),
        _ => Err(format!("{} answered with the wrong kind", q.verb())),
    }
}

/// Bytes of the response frame carrying `a`.
pub fn response_frame_len(a: &Answer) -> usize {
    a.response().encode().len() + xarch_proto::FRAME_HEADER_LEN
}

/// One request/response pair through the codecs and the framing, in
/// memory: encode, frame, unframe and decode both directions. Returns the
/// elapsed time in microseconds.
pub fn codec_round_trip_us(req: &Request, resp: &Response) -> Result<f64, String> {
    let t = Instant::now();
    let mut wire = Vec::new();
    write_frame(&mut wire, &req.encode()).map_err(|e| e.to_string())?;
    let body = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).map_err(|e| e.to_string())?;
    let req2 = Request::decode(&body).map_err(|e| e.to_string())?;
    let mut wire = Vec::new();
    write_frame(&mut wire, &resp.encode()).map_err(|e| e.to_string())?;
    let body = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).map_err(|e| e.to_string())?;
    let resp2 = Response::decode(&body).map_err(|e| e.to_string())?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box((req2, resp2));
    Ok(us)
}
