//! Study-level benchmark for branch-lab.
//!
//! ```text
//! perfbench --workload <grid-lcf|characterize-spec|sampled-suite|serve-zipf>
//!           --seed N --seconds S --trace 0|1 [--threads T] [--commit ID]
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds this
//! package first. Prints human-readable lines, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` where `metrics` holds
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) named in `BENCHMARK.json`.
//!
//! End-to-end numbers come from untraced runs. A traced run alternates
//! untraced and traced iterations (requests, on `serve-zipf`): the traced
//! ones give the per-layer table, and the pair gives the tracing overhead.

mod serve;
mod span;
mod stats;
mod studies;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use bp_core::DatasetConfig;

use crate::span::{rec, LayerTable};
use crate::stats::{median, percentile, tail_percentile};
use crate::studies::Kind;

/// Set-up repetitions per run: at least `SETUP_MIN_REPS`, and more, up to
/// `SETUP_MAX_REPS`, until `SETUP_MIN_SECS` have passed, so that a short
/// set-up is sampled often enough for its median to ride out bursts of
/// host noise. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_MIN_SECS: f64 = 4.0;

/// Server start-to-first-result repetitions per `serve-zipf` run, after
/// `SERVE_WARMUP_REPS` unmeasured ones. The set-up request's trace is
/// already in the process store (its expected body is computed first).
const SERVE_SETUP_REPS: usize = 15;
const SERVE_WARMUP_REPS: usize = 2;

/// Environment variables that change what a run does; the benchmark
/// refuses to run under them rather than measure something else.
const REFUSED: [&str; 3] = [
    "BRANCH_LAB_FAULTS",
    "BRANCH_LAB_CHAOS_SEED",
    "BRANCH_LAB_MEM_BUDGET",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: nproc,
        commit: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--threads" => {
                args.threads = value()?
                    .parse()
                    .map_err(|_| "--threads must be an integer")?;
            }
            "--commit" => args.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 || args.threads == 0 {
        return Err("--seconds and --threads must be positive".into());
    }
    Ok(args)
}

/// Pins the environment the library reads: no fault injection, no memory
/// governor, no sampling overrides, no metrics sink, a fixed thread count,
/// and a trace directory private to this run.
fn pin_env(threads: usize, trace_dir: &std::path::Path) -> Result<(), String> {
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if REFUSED.contains(&name.as_ref()) || name.starts_with("BRANCH_LAB_SAMPLE") {
            return Err(format!("refusing to run with {name} set"));
        }
    }
    std::env::remove_var("BRANCH_LAB_METRICS");
    for name in [
        "BRANCH_LAB_SERVE_ADDR",
        "BRANCH_LAB_SERVE_WORKERS",
        "BRANCH_LAB_SERVE_CACHE_DIR",
        "BRANCH_LAB_SERVE_CACHE_BUDGET",
    ] {
        std::env::remove_var(name);
    }
    std::env::set_var("BRANCH_LAB_THREADS", threads.to_string());
    std::env::set_var("BRANCH_LAB_TRACE_DIR", trace_dir);
    Ok(())
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// A named value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The end-to-end metrics, gated ones first.
    e2e: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    layers: Vec<Metric>,
    notes: Vec<String>,
}

/// End-to-end metrics every workload reports in its JSON line.
const GATED: [&str; 5] = [
    "setup_s",
    "sim_mrec_s",
    "peak_rss_mb",
    "req_p50_ms",
    "req_per_s",
];

/// Every end-to-end metric, in print order; the ones after [`GATED`]
/// exist on some workloads only, or are 0 by design (`failed_frac`).
const ALL_E2E: [&str; 10] = [
    "setup_s",
    "sim_mrec_s",
    "peak_rss_mb",
    "req_p50_ms",
    "req_per_s",
    "failed_frac",
    "mpki_err_pct",
    "ipc_err_pct",
    "ci_misses",
    "req_p99_ms",
];

/// Per-layer metric names, in output order. Layers a workload does not
/// exercise report 0.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("workloads.generate_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_mrec_s", "Mrec/s"),
    ("trace.profile_s", "s"),
    ("predictors.train_s", "s"),
    ("predictors.branch_lanes", "count"),
    ("predictors.ns_per_branch_lane", "ns"),
    ("pipeline.prepare_s", "s"),
    ("pipeline.prepare_mrec_s", "Mrec/s"),
    ("pipeline.lanes_s", "s"),
    ("pipeline.lane_mrec_s", "Mrec/s"),
    ("pipeline.sims", "count"),
    ("pipeline.sample_prepare_s", "s"),
    ("pipeline.warm_s", "s"),
    ("pipeline.weighted_s", "s"),
    ("pipeline.sample_coverage", "frac"),
    ("analysis.collect_s", "s"),
    ("analysis.screen_s", "s"),
    ("analysis.phase_s", "s"),
    ("analysis.simpoints_s", "s"),
    ("core.busy_frac", "frac"),
    ("core.task_skew", "ratio"),
    ("serve.hit_ratio", "frac"),
    ("serve.hit", "count"),
    ("serve.miss", "count"),
    ("serve.join", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("attributed_frac", "frac"),
    ("trace_overhead_pct", "%"),
    ("mpki_err_pct", "%"),
    ("ipc_err_pct", "%"),
    ("ci_misses", "count"),
    ("req_p99_ms", "ms"),
];

/// Layer metrics common to every workload, from the traced spans.
fn layer_table(iters: f64, t: &LayerTable) -> Vec<(&'static str, f64)> {
    let per = |name: &str| t.secs(name) / iters.max(1.0);
    let rate = |count_of: &str, secs_of: &str| {
        let s = t.secs(secs_of);
        if s > 0.0 {
            t.count(count_of) as f64 / s / 1e6
        } else {
            0.0
        }
    };
    let train_ns = t.secs("predictors.train") * 1e9;
    let lanes = t.count("predictors.train") as f64;
    vec![
        ("trace.decode_s", per("trace.decode")),
        ("trace.decode_mrec_s", rate("trace.decode", "trace.decode")),
        ("trace.profile_s", per("trace.profile")),
        ("predictors.train_s", per("predictors.train")),
        ("predictors.branch_lanes", lanes / iters.max(1.0)),
        (
            "predictors.ns_per_branch_lane",
            if lanes > 0.0 { train_ns / lanes } else { 0.0 },
        ),
        ("pipeline.prepare_s", per("pipeline.prepare")),
        (
            "pipeline.prepare_mrec_s",
            rate("pipeline.prepare", "pipeline.prepare"),
        ),
        ("pipeline.lanes_s", per("pipeline.lanes")),
        (
            "pipeline.lane_mrec_s",
            rate("pipeline.lanes", "pipeline.lanes"),
        ),
        ("pipeline.sample_prepare_s", per("pipeline.sample_prepare")),
        ("pipeline.warm_s", per("pipeline.warm")),
        ("pipeline.weighted_s", per("pipeline.weighted")),
        ("analysis.collect_s", per("analysis.collect")),
        ("analysis.screen_s", per("analysis.screen")),
        ("analysis.phase_s", per("analysis.phase")),
        ("analysis.simpoints_s", per("analysis.simpoints")),
        ("attributed_frac", t.attributed_frac()),
    ]
}

/// Median over `Engine::map` calls of longest ÷ mean task wall time.
fn task_skew(spans: &[span::Span]) -> f64 {
    let mut per_map: std::collections::BTreeMap<usize, Vec<f64>> =
        std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.task") {
        if let Some(p) = s.parent {
            per_map
                .entry(p)
                .or_default()
                .push(s.end.saturating_sub(s.start) as f64);
        }
    }
    let skews: Vec<f64> = per_map
        .values()
        .filter(|v| v.len() > 1)
        .map(|v| v.iter().copied().fold(0.0, f64::max) / (v.iter().sum::<f64>() / v.len() as f64))
        .collect();
    median(&skews)
}

fn study_kind(workload: &str) -> Option<Kind> {
    match workload {
        "grid-lcf" => Some(Kind::Grid),
        "characterize-spec" => Some(Kind::Characterize),
        "sampled-suite" => Some(Kind::Sampled),
        _ => None,
    }
}

/// Runs a batch-study workload.
fn run_study(kind: Kind, args: &Args, dir: &std::path::Path) -> Outcome {
    let cfg = DatasetConfig::standard();
    let items = studies::items(kind, args.seed);
    let mut notes = Vec::new();

    // Set-up, repeated; traced runs trace every repetition.
    rec().set_on(args.trace);
    let mut setup = Vec::new();
    let setup_start = Instant::now();
    while setup.len() < SETUP_MIN_REPS
        || (setup.len() < SETUP_MAX_REPS
            && setup_start.elapsed().as_secs_f64() < SETUP_MIN_SECS)
    {
        rec().set_iteration(u32::try_from(setup.len()).expect("few set-ups"));
        let _g = rec().span("bench.setup");
        let t = Instant::now();
        studies::setup(&items, dir, cfg.trace_len);
        setup.push(t.elapsed().as_secs_f64());
    }
    let (setup_spans, setup_aggs) = rec().snapshot();
    let setup_table = LayerTable::build(&setup_spans, &setup_aggs);
    rec().set_on(false);

    // Measured iterations; a traced run alternates untraced and traced.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut cpu_traced, mut wall_traced) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut expected: Option<u64> = None;
    let mut last: Option<studies::IterOut> = None;
    let span_base = setup_spans.len();
    let agg_base = setup_aggs.len();
    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed().as_secs_f64() < args.seconds || (args.trace && traced_walls.is_empty()) {
        let traced = args.trace && i % 2 == 1;
        rec().set_on(traced);
        rec().set_iteration(i);
        let cpu0 = cpu_secs();
        let t = Instant::now();
        let out = {
            let _g = rec().span("bench.iteration");
            std::panic::catch_unwind(|| studies::iterate(kind, &items, dir, &cfg))
        };
        let wall = t.elapsed().as_secs_f64();
        rec().set_on(false);
        attempted += 1;
        match out {
            Ok(out) => {
                let digest = stats::digest(&out.stats);
                let ok = out.store_ok && *expected.get_or_insert(digest) == digest;
                if !ok {
                    failed += 1;
                    notes.push(format!(
                        "iteration {i}: digest {digest:016x} or store check failed"
                    ));
                }
                last = Some(out);
            }
            Err(_) => {
                failed += 1;
                notes.push(format!("iteration {i} panicked"));
            }
        }
        if traced {
            traced_walls.push(wall);
            cpu_traced += cpu_secs() - cpu0;
            wall_traced += wall;
        } else {
            walls.push(wall);
        }
        i += 1;
    }
    let peak = peak_rss_mb();

    // Seed 0 is the registered study's own input: its report must match.
    if args.seed == 0 {
        attempted += 1;
        let reference = studies::reference_report(kind, &cfg);
        if last.as_ref().is_none_or(|o| o.report != reference) {
            failed += 1;
            notes.push("seed 0 report differs from the registered study's report".into());
        } else {
            notes.push("seed 0 report is byte-identical to the registered study's report".into());
        }
    }

    let last = last.as_ref();
    let records = last.map_or(0, |o| o.records) as f64;
    let p50 = median(&walls);
    let mut e2e = vec![
        m("setup_s", median(&setup), "s"),
        m(
            "sim_mrec_s",
            if p50 > 0.0 { records / p50 / 1e6 } else { 0.0 },
            "Mrec/s",
        ),
        m("peak_rss_mb", peak, "MB"),
        m("req_p50_ms", p50 * 1e3, "ms"),
        m("req_per_s", if p50 > 0.0 { 1.0 / p50 } else { 0.0 }, "1/s"),
        m(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
    ];
    if let Some((mpki, ipc, misses)) = last.and_then(|o| o.sampling) {
        e2e.push(m("mpki_err_pct", mpki, "%"));
        e2e.push(m("ipc_err_pct", ipc, "%"));
        e2e.push(m("ci_misses", misses as f64, "count"));
    }
    notes.push(format!(
        "records per iteration {records}; iterations {} untraced, {} traced; digest {:016x}",
        walls.len(),
        traced_walls.len(),
        expected.unwrap_or(0)
    ));
    notes.push(format!("untraced iteration walls (s): {walls:.3?}"));
    notes.push(format!("set-up repetitions (s): {setup:.3?}"));

    let mut layers = Vec::new();
    if args.trace {
        let (spans, aggs) = rec().snapshot();
        let iter_spans = &spans[span_base..];
        // Re-index parents into the iteration slice.
        let shifted: Vec<span::Span> = iter_spans
            .iter()
            .map(|s| span::Span {
                parent: s.parent.map(|p| p - span_base),
                ..s.clone()
            })
            .collect();
        let shifted_aggs: Vec<span::Agg> = aggs[agg_base..]
            .iter()
            .map(|a| span::Agg {
                parent: a.parent - span_base,
                ..a.clone()
            })
            .collect();
        let table = LayerTable::build(&shifted, &shifted_aggs);
        let n = traced_walls.len() as f64;
        let mut values = layer_table(n, &table);
        let reps = setup.len() as f64;
        values.push((
            "workloads.generate_s",
            setup_table.secs("workloads.generate") / reps,
        ));
        values.push(("trace.encode_s", setup_table.secs("trace.encode") / reps));
        values.push(("pipeline.sims", sims(kind, &items) as f64));
        values.push((
            "core.busy_frac",
            cpu_traced / (wall_traced * args.threads as f64).max(1e-9),
        ));
        values.push(("core.task_skew", task_skew(&shifted)));
        values.push((
            "trace_overhead_pct",
            (median(&traced_walls) / p50.max(1e-9) - 1.0) * 100.0,
        ));
        if let Some((mpki, ipc, misses)) = last.and_then(|o| o.sampling) {
            values.push(("mpki_err_pct", mpki));
            values.push(("ipc_err_pct", ipc));
            values.push(("ci_misses", misses as f64));
            let coverage = table.count("pipeline.weighted") as f64
                / (items.len() as f64 * cfg.trace_len as f64 * n).max(1.0);
            values.push(("pipeline.sample_coverage", coverage));
        }
        layers = fill_layers(&values);
        write_spans(args, &spans);
    }
    Outcome {
        attempted,
        failed,
        e2e,
        layers,
        notes,
    }
}

/// Flag lanes replayed per iteration.
fn sims(kind: Kind, items: &[studies::Item]) -> u64 {
    match kind {
        Kind::Grid => {
            (items.len()
                * bp_predictors::PredictorSpec::hetero_grid().len()
                * bp_pipeline::PipelineConfig::SCALES.len()) as u64
        }
        Kind::Characterize => 0,
        // One full replay and one weighted replay per workload.
        Kind::Sampled => 2 * items.len() as u64,
    }
}

/// Orders `values` as [`LAYER_METRICS`], filling absent metrics with 0.
fn fill_layers(values: &[(&'static str, f64)]) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            m(name, v, unit)
        })
        .collect()
}

/// Writes the recorded spans as JSON lines under `.perfbench/`.
fn write_spans(args: &Args, spans: &[span::Span]) {
    let dir = PathBuf::from(".perfbench");
    let _ = std::fs::create_dir_all(&dir);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"thread\":{},\"workload\":\"{}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name,
            s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.thread,
            args.workload,
            s.iteration,
            s.start,
            s.end,
            s.count
        );
    }
    let _ = std::fs::write(
        dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        out,
    );
}

/// Runs `serve-zipf`.
fn run_serve(args: &Args) -> Outcome {
    let mut notes = Vec::new();
    let keys = serve::pool();
    let mut setup = Vec::new();
    let mut server = None;
    let mut setup_bad = 0u64;
    let expected_setup = serve::setup_expected();
    for r in 0..SERVE_WARMUP_REPS + SERVE_SETUP_REPS {
        let (s, secs, body) = serve::start();
        setup_bad += u64::from(body.as_deref() != Some(expected_setup.as_bytes()));
        if r >= SERVE_WARMUP_REPS {
            setup.push(secs);
        }
        if r + 1 < SERVE_WARMUP_REPS + SERVE_SETUP_REPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    rec().set_on(args.trace);
    let cpu0 = cpu_secs();
    let generated0 = bp_workloads::TraceStore::global().stats().generated;
    let count = (args.seconds * serve::REQUESTS_PER_SECOND).round() as usize;
    let load = serve::load(&server, &keys, args.seed, count, args.trace);
    let generated = bp_workloads::TraceStore::global().stats().generated - generated0;
    let cpu = cpu_secs() - cpu0;
    rec().set_on(false);
    let peak = peak_rss_mb();
    server.shutdown();

    let samples = &load.samples;
    let non_ok = samples.iter().filter(|s| s.status != 200).count() as u64;
    let mismatched_keys = serve::verify(&keys, &load.bodies);
    let tier = |t: &str| samples.iter().filter(|s| s.tier == t).count();
    let (hits, misses, joins) = (tier("hit") + tier("hit-disk"), tier("miss"), tier("join"));
    let distinct = load.bodies.len();
    let singleflight_ok = misses == distinct;
    let setups = (SERVE_WARMUP_REPS + SERVE_SETUP_REPS) as u64;
    let attempted = samples.len() as u64 + 1 + setups;
    let failed = non_ok
        + load.body_mismatches
        + mismatched_keys
        + u64::from(!singleflight_ok)
        + setup_bad;
    notes.push(format!(
        "set-up: {setups} fresh servers, first responses differing from the in-process sweep report {setup_bad}; measured (s): {setup:.4?}"
    ));
    notes.push(format!(
        "requests {}; distinct keys {distinct}; miss {misses}, hit {hits}, join {joins}; non-200 {non_ok}; \
         body mismatches {}; keys differing from the in-process sweep report {mismatched_keys}; singleflight {}; \
         traces generated by misses {generated}",
        samples.len(),
        load.body_mismatches,
        if singleflight_ok { "ok" } else { "FAILED" }
    ));

    let lat = |f: &dyn Fn(&serve::Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| f(s))
            .map(|s| s.secs * 1e3)
            .collect()
    };
    let untraced = lat(&|s| !s.traced);
    let p99 = percentile(&untraced, 99.0);
    let n = untraced.len();
    let tail = tail_percentile(n);
    notes.push(format!(
        "latency samples {n}; highest percentile with 10 samples beyond it: {}",
        tail.map_or_else(|| "none".to_owned(), |p| format!("p{p}"))
    ));
    let e2e = vec![
        m("setup_s", median(&setup), "s"),
        m(
            "sim_mrec_s",
            serve::miss_records(&keys, samples) as f64 / load.wall / 1e6,
            "Mrec/s",
        ),
        m("peak_rss_mb", peak, "MB"),
        m("req_p50_ms", median(&untraced), "ms"),
        m("req_per_s", samples.len() as f64 / load.wall, "1/s"),
        m("failed_frac", failed as f64 / attempted as f64, "frac"),
        m("req_p99_ms", p99, "ms"),
    ];

    let mut layers = Vec::new();
    if args.trace {
        let (spans, aggs) = rec().snapshot();
        let table = LayerTable::build(&spans, &aggs);
        let hit_lat = lat(&|s| s.tier.starts_with("hit"));
        let miss_lat = lat(&|s| s.tier == "miss");
        let hit_traced = lat(&|s| s.traced && s.tier.starts_with("hit"));
        let hit_untraced = lat(&|s| !s.traced && s.tier.starts_with("hit"));
        let values = vec![
            ("serve.hit_ratio", hits as f64 / samples.len().max(1) as f64),
            ("serve.hit", hits as f64),
            ("serve.miss", misses as f64),
            ("serve.join", joins as f64),
            ("serve.hit_p50_ms", median(&hit_lat)),
            ("serve.hit_p99_ms", percentile(&hit_lat, 99.0)),
            ("serve.miss_p50_ms", median(&miss_lat)),
            ("serve.miss_p99_ms", percentile(&miss_lat, 99.0)),
            ("core.busy_frac", cpu / (load.wall * args.threads as f64)),
            ("attributed_frac", table.attributed_frac()),
            (
                "trace_overhead_pct",
                (median(&hit_traced) / median(&hit_untraced).max(1e-9) - 1.0) * 100.0,
            ),
            ("req_p99_ms", p99),
        ];
        notes.push(format!(
            "per-tier samples: hit {}, miss {} (p99 needs 1000 samples per tier to have 10 beyond it)",
            hit_lat.len(),
            miss_lat.len()
        ));
        layers = fill_layers(&values);
        write_spans(args, &spans);
    }
    Outcome {
        attempted,
        failed,
        e2e,
        layers,
        notes,
    }
}

fn json_line(correct: bool, o: &Outcome, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let trace_dir = scratch.join("traces");
    if let Err(e) = pin_env(args.threads, &trace_dir) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let outcome = match (study_kind(&args.workload), args.workload.as_str()) {
        (Some(kind), _) => run_study(kind, &args, &trace_dir),
        (None, "serve-zipf") => run_serve(&args),
        (None, other) => {
            eprintln!("perfbench: unknown workload {other}; expected grid-lcf, characterize-spec, sampled-suite or serve-zipf");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} threads={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        args.threads,
        args.commit
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for name in ALL_E2E {
        match outcome.e2e.iter().find(|x| x.name == name) {
            Some(x) => println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit),
            None => println!("  {name:<32} {:>16} (not measured on this workload)", "n/a"),
        }
    }
    for x in &outcome.layers {
        println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<&Metric> = if args.trace {
        outcome.layers.iter().collect()
    } else {
        GATED
            .iter()
            .filter_map(|g| outcome.e2e.iter().find(|x| x.name == *g))
            .collect()
    };
    println!("{}", json_line(correct, &outcome, &metrics));
}
