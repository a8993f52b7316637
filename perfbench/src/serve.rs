//! `serve-zipf`: an in-process `StudyService` behind `bp_core::serve::Server`
//! on loopback, driven by closed-loop clients sending `POST /sweep`
//! requests drawn from a seeded Zipf distribution over a fixed key pool.
//!
//! Each client sends its next request only after the previous one
//! completes, as callers waiting for study results do.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bp_core::serve::http::{Request, Response};
use bp_core::serve::{Handler, Server};
use bp_core::Engine;
use bp_experiments::serve::{ServeOptions, StudyService};
use bp_predictors::PredictorSpec;
use bp_workloads::{find_workload, workload_names};

use crate::span::rec;
use crate::stats::ZipfStream;

/// Predictors in the key pool; a key asks for one of them or a pair.
const PREDICTORS: [&str; 10] = [
    "tage-sc-l-8kb",
    "tage-sc-l-64kb",
    "tage-8kb",
    "tage-l-8kb",
    "gshare",
    "bimodal",
    "tournament",
    "two-level-local",
    "perceptron",
    "ppm",
];

/// Trace lengths in the key pool.
const LENS: [usize; 4] = [50_000, 100_000, 150_000, 200_000];

/// Pipeline scales every request asks for.
const SCALES: [u32; 2] = [1, 4];

/// Zipf exponent: with the pool above, about one request in ten names a
/// key not seen before during a run.
pub const ZIPF_S: f64 = 1.2;

/// Closed-loop clients (and so concurrent connections).
pub const CLIENTS: usize = 2;

/// Header carrying the client span a traced request belongs to.
const TRACE_HEADER: &str = "x-perfbench-span";

/// One key of the pool.
#[derive(Clone, Debug)]
pub struct Key {
    workload: String,
    predictors: String,
    len: usize,
}

impl Key {
    fn body(&self) -> String {
        let scales: Vec<String> = SCALES.iter().map(|s| format!("\"{s}\"")).collect();
        format!(
            "{{\"workload\":\"{}\",\"predictors\":\"{}\",\"scales\":[{}],\"len\":{}}}",
            self.workload,
            self.predictors,
            scales.join(","),
            self.len
        )
    }

    /// Records a miss simulates: every predictor lane trains over the
    /// trace and is replayed at every scale.
    fn records(&self) -> u64 {
        let lanes = self.predictors.split(',').count();
        (self.len * lanes * (1 + SCALES.len())) as u64
    }

    /// The body `branch-lab sweep` prints for this key, computed in-process.
    fn expected(&self) -> String {
        let spec = find_workload(&self.workload).expect("pool names only suite workloads");
        let specs = PredictorSpec::parse_list(&self.predictors).expect("pool labels parse");
        bp_experiments::cli::sweep_report(&spec, &specs, &SCALES, self.len).render()
    }
}

/// The fixed key pool: workload × predictor set (each predictor alone
/// and every pair) × length; 15 × 55 × 4 = 3 300 keys over 60 traces.
#[must_use]
pub fn pool() -> Vec<Key> {
    let mut sets: Vec<String> = PREDICTORS.iter().map(|p| (*p).to_owned()).collect();
    for (i, a) in PREDICTORS.iter().enumerate() {
        sets.extend(PREDICTORS[i + 1..].iter().map(|b| format!("{a},{b}")));
    }
    let mut keys = Vec::new();
    for workload in workload_names() {
        for predictors in &sets {
            for len in LENS {
                keys.push(Key {
                    workload: workload.clone(),
                    predictors: predictors.clone(),
                    len,
                });
            }
        }
    }
    keys
}

/// Wraps the service so traced requests record a `serve.handle` span on
/// the worker thread, under the client span named in the request header.
struct TracedHandler(Arc<StudyService>);

impl Handler for TracedHandler {
    fn handle(&self, req: &Request) -> Response {
        match req
            .header(TRACE_HEADER)
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(parent) => {
                let _g = rec().span_under("serve.handle", Some(parent));
                self.0.handle(req)
            }
            None => self.0.handle(req),
        }
    }
}

/// The request each fresh server answers first during set-up. Its length
/// is outside [`LENS`], so the key is not in the pool.
fn setup_key() -> Key {
    Key {
        workload: workload_names()[0].clone(),
        predictors: "tage-sc-l-8kb".to_owned(),
        len: 120_000,
    }
}

/// Builds a fresh service with a memory-only cache, binds it, and sends it
/// the set-up request. Returns the server, the seconds from construction
/// to the first served response, and that response's body (`None` unless
/// it was a 200 `miss`).
///
/// # Panics
///
/// Panics if the server cannot bind or never answers.
#[must_use]
pub fn start() -> (Server, f64, Option<Vec<u8>>) {
    let body = setup_key().body();
    let raw = format!(
        "POST /sweep HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let t = Instant::now();
    let workers = ServeOptions::resolve(Vec::new()).workers;
    let service = Arc::new(StudyService::new(
        bp_experiments::registry::registry(),
        None,
        None,
        None,
    ));
    let server = Server::bind("127.0.0.1:0", workers, Arc::new(TracedHandler(service)))
        .expect("bind loopback server");
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_secs(10);
    let reply = loop {
        if let Ok(reply) = exchange(addr, &raw) {
            break reply;
        }
        assert!(Instant::now() < deadline, "server never answered");
        std::thread::sleep(Duration::from_millis(1));
    };
    let secs = t.elapsed().as_secs_f64();
    let (status, tier, got) = reply;
    (server, secs, (status == 200 && tier == "miss").then_some(got))
}

/// The body `branch-lab sweep` prints for the set-up request.
#[must_use]
pub fn setup_expected() -> String {
    setup_key().expected()
}

/// Sends one raw request; returns status, cache tier header, and body.
fn exchange(addr: SocketAddr, raw: &str) -> std::io::Result<(u16, String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw.as_bytes())?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    let split = out
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without header end"))?;
    let head = String::from_utf8_lossy(&out[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without status"))?;
    let tier = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-branch-lab-cache")
                .then(|| value.trim().to_owned())
        })
        .unwrap_or_default();
    Ok((status, tier, out[split + 4..].to_vec()))
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the pool.
    pub key: usize,
    /// Client-observed latency, seconds.
    pub secs: f64,
    /// HTTP status (0 when the exchange itself failed).
    pub status: u16,
    /// `X-Branch-Lab-Cache` value.
    pub tier: String,
    /// Whether the request was traced.
    pub traced: bool,
}

/// What the closed loop observed.
pub struct LoadOut {
    /// Every completed request, in completion order.
    pub samples: Vec<Sample>,
    /// Load wall time, seconds.
    pub wall: f64,
    /// First body received per key.
    pub bodies: HashMap<usize, Vec<u8>>,
    /// Responses whose body differed from the first body for their key.
    pub body_mismatches: u64,
}

/// Requests a run sends per second of `--seconds`. The run sends a fixed
/// sequence rather than filling a fixed time: in a time-boxed closed loop
/// cheap cache hits fill whatever time misses leave, which turns a small
/// change in host speed into a large change in `req_per_s`.
pub const REQUESTS_PER_SECOND: f64 = 1000.0;

/// Sends the first `count` requests of the seed's sequence through the
/// closed loop. With `traced`, every other request carries a client span
/// and its handling a server span.
#[must_use]
pub fn load(server: &Server, keys: &[Key], seed: u64, count: usize, traced: bool) -> LoadOut {
    let sequence = ZipfStream::new(keys.len(), ZIPF_S, seed).take(count);
    let addr = server.local_addr();
    let next = AtomicUsize::new(0);
    let shared = Mutex::new((Vec::new(), HashMap::new(), 0u64));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&key) = sequence.get(i) else { break };
                    let body = keys[key].body();
                    let trace_this = traced && i % 2 == 1;
                    let guard = trace_this.then(|| rec().span("serve.request"));
                    let span_header = guard
                        .as_ref()
                        .and_then(crate::span::Guard::id)
                        .map_or_else(String::new, |id| format!("{TRACE_HEADER}: {id}\r\n"));
                    let raw = format!(
                        "POST /sweep HTTP/1.1\r\nHost: bench\r\n{span_header}Content-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let t = Instant::now();
                    let reply = exchange(addr, &raw);
                    let secs = t.elapsed().as_secs_f64();
                    drop(guard);
                    let (status, tier, got) = reply.unwrap_or((0, String::new(), Vec::new()));
                    let mut sh = shared.lock().expect("sample list lock poisoned by a panic");
                    let (samples, bodies, mismatches) = &mut *sh;
                    if status == 200 {
                        let first: &mut Vec<u8> = bodies.entry(key).or_insert_with(|| got.clone());
                        *mismatches += u64::from(*first != got);
                    }
                    samples.push(Sample { key, secs, status, tier, traced: trace_this });
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let (samples, bodies, body_mismatches) = shared
        .into_inner()
        .expect("sample list lock poisoned by a panic");
    LoadOut {
        samples,
        wall,
        bodies,
        body_mismatches,
    }
}

/// Compares each key's served body with the in-process sweep report;
/// returns how many keys differ.
#[must_use]
pub fn verify(keys: &[Key], bodies: &HashMap<usize, Vec<u8>>) -> u64 {
    let mut served: Vec<(&usize, &Vec<u8>)> = bodies.iter().collect();
    served.sort_unstable_by_key(|(k, _)| **k);
    Engine::from_env()
        .map(&served, |_, (key, body)| {
            u64::from(keys[**key].expected().as_bytes() != body.as_slice())
        })
        .into_iter()
        .sum()
}

/// Records the misses in `samples` simulated.
#[must_use]
pub fn miss_records(keys: &[Key], samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| s.tier == "miss")
        .map(|s| keys[s.key].records())
        .sum()
}
