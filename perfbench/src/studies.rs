//! The three batch workloads — `grid-lcf`, `characterize-spec` and
//! `sampled-suite` — driven through the public functions the registered
//! `grid`, `table1` and `sampled` studies call.
//!
//! Set-up generates every trace the study needs ([`WorkloadSpec::trace`])
//! and encodes it ([`Trace::save`]) into an empty scratch directory under
//! the name [`TraceStore`] looks for. Each iteration then reads the traces
//! back from that directory, as a CLI run with a trace directory does, and
//! fails if a store had to generate any.
//!
//! Untraced iterations call the library where it exposes the study body:
//! `grid-lcf` runs [`hetero_grid_study_with`] and `characterize-spec` runs
//! [`characterize_input`] per trace. Traced iterations, and `sampled-suite`
//! (whose inputs vary by seed), restate the study body call for call,
//! because the spans must sit between the calls. Every iteration must give
//! the same digest, and at seed 0 the rendered report is byte-compared with
//! the registered study's own, which keeps the restatements honest.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bp_analysis::{
    cluster_slices, simpoints_from_profiles, BranchProfile, H2pCriteria, PhaseConfig,
};
use bp_core::{
    characterize_input, f3, hetero_grid_study_with, pct, DatasetConfig, Engine, HeteroGridRow,
    HeteroGridStudy, InputCharacterization, Report, SamplingConfig, Table,
    WorkloadCharacterization,
};
use bp_pipeline::{PipelineConfig, SamplePlan, SampleSegment, SampledReplay, SweepReplay};
use bp_predictors::{
    misprediction_flags, sweep_flags_stream, DirectionPredictor, PredictorSpec, TageScL,
};
use bp_trace::{profile_intervals, Trace};
use bp_workloads::{lcf_suite, specint_suite, TraceStore, WorkloadSpec};

use crate::span::{rec, TimedPredictor, TimedReader};

/// Which batch study a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `grid-lcf`: 16 heterogeneous lanes × 6 pipeline scales over LCF.
    Grid,
    /// `characterize-spec`: Table I over every SPECint input.
    Characterize,
    /// `sampled-suite`: sampled vs full replay over all 15 workloads.
    Sampled,
}

/// One trace the study reads: a workload and one of its declared inputs.
#[derive(Clone, Debug)]
pub struct Item {
    spec: WorkloadSpec,
    input: u32,
}

/// The traces a study reads at `seed`. `grid-lcf` and `characterize-spec`
/// read exactly the registered study's inputs at every seed; on
/// `sampled-suite` the input is `seed mod declared inputs`, so seed 0 is
/// the registered study's input.
#[must_use]
pub fn items(kind: Kind, seed: u64) -> Vec<Item> {
    let every_input = |s: &WorkloadSpec| {
        let spec = s.clone();
        (0..s.inputs).map(move |input| Item {
            spec: spec.clone(),
            input,
        })
    };
    match kind {
        // `grid` streams input 0, the one input each LCF workload declares.
        Kind::Grid => lcf_suite()
            .iter()
            .map(|s| Item {
                spec: s.clone(),
                input: 0,
            })
            .collect(),
        Kind::Characterize => specint_suite().iter().flat_map(every_input).collect(),
        Kind::Sampled => specint_suite()
            .iter()
            .chain(lcf_suite().iter())
            .map(|s| {
                let input = u32::try_from(seed % u64::from(s.inputs)).expect("input fits u32");
                Item {
                    spec: s.clone(),
                    input,
                }
            })
            .collect(),
    }
}

/// The file name [`TraceStore`] persists a trace under.
fn store_file(dir: &Path, item: &Item, len: usize) -> PathBuf {
    let name: String = item
        .spec
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{name}-i{}-l{len}.bptr", item.input))
}

/// Generates and encodes every trace into an emptied `dir`, on the engine.
///
/// # Panics
///
/// Panics if the directory cannot be recreated or a trace cannot be saved.
pub fn setup(items: &[Item], dir: &Path, len: usize) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch trace directory");
    let map = rec().span("core.map");
    let parent = map.id();
    Engine::from_env().map(items, |_, item| {
        let _task = rec().span_under("core.task", parent);
        let trace = {
            let g = rec().span("workloads.generate");
            let t = item.spec.trace(item.input, len);
            g.count(t.len() as u64);
            t
        };
        let g = rec().span("trace.encode");
        trace
            .save(store_file(dir, item, len))
            .expect("save trace to scratch directory");
        g.count(trace.len() as u64);
    });
}

/// What one iteration produced.
pub struct IterOut {
    /// Every simulated statistic, in a fixed order, for the digest.
    pub stats: Vec<f64>,
    /// The study's report, rendered as `branch-lab run` prints it.
    pub report: String,
    /// Trace records passed through a predictor lane or a simulation.
    pub records: u64,
    /// Sampled-suite accuracy: worst MPKI and IPC error (%), CI misses.
    pub sampling: Option<(f64, f64, u64)>,
    /// Whether the store served every trace from disk without generating.
    pub store_ok: bool,
}

/// Runs one iteration of `kind` over traces set up in `dir`.
#[must_use]
pub fn iterate(kind: Kind, items: &[Item], dir: &Path, cfg: &DatasetConfig) -> IterOut {
    match kind {
        Kind::Grid => grid(items, cfg),
        Kind::Characterize => characterize(items, dir, cfg),
        Kind::Sampled => sampled(items, dir, cfg),
    }
}

/// The registered study's own report, for the seed-0 comparison.
#[must_use]
pub fn reference_report(kind: Kind, cfg: &DatasetConfig) -> String {
    match kind {
        Kind::Grid => bp_experiments::reports::grid_report(cfg).render(),
        Kind::Characterize => bp_experiments::reports::table1_report(cfg).render(),
        Kind::Sampled => {
            bp_experiments::studies::sampled_report(cfg, &SamplingConfig::default()).render()
        }
    }
}

/// `grid-lcf`. The `grid` study streams its traces through the process
/// store, which never keeps a disk-backed stream in memory, so every
/// iteration decodes every trace from disk, as a CLI run does.
fn grid(items: &[Item], cfg: &DatasetConfig) -> IterOut {
    let store = TraceStore::global();
    let before = store.stats();
    let specs: Vec<WorkloadSpec> = items.iter().map(|i| i.spec.clone()).collect();
    let study = if rec().on() {
        grid_traced(&specs, cfg)
    } else {
        hetero_grid_study_with(Engine::from_env(), &specs, cfg)
    };
    let after = store.stats();
    let _g = rec().span("bench.report");
    let lanes = study.specs.len() * (1 + study.scales.len());
    IterOut {
        stats: study
            .rows
            .iter()
            .flat_map(|r| r.ipc.iter().flatten().chain(&r.mpki).copied())
            .collect(),
        report: grid_render(&study),
        records: (items.len() * cfg.trace_len * lanes) as u64,
        sampling: None,
        store_ok: after.generated == before.generated
            && after.disk_loads - before.disk_loads == 2 * items.len() as u64,
    }
}

/// `hetero_grid_study_with` with a span around each layer call.
fn grid_traced(specs: &[WorkloadSpec], cfg: &DatasetConfig) -> HeteroGridStudy {
    let store = TraceStore::global();
    let scales = PipelineConfig::SCALES.to_vec();
    let grid_specs = PredictorSpec::hetero_grid();
    let base = PipelineConfig::skylake();
    let map = rec().span("core.map");
    let parent = map.id();
    let rows = Engine::from_env().map(specs, |_, spec| {
        let _task = rec().span_under("core.task", parent);
        let mut predictors = PredictorSpec::build_all(&grid_specs);
        let flags = {
            let g = rec().span("predictors.train");
            let reader = TimedReader::new(store.stream(spec, 0, cfg.trace_len));
            let flags =
                sweep_flags_stream(&mut predictors, reader).expect("stream trace for training");
            g.count(flags.iter().map(|f| f.len() as u64).sum());
            flags
        };
        let lanes: Vec<&[bool]> = flags.iter().map(Vec::as_slice).collect();
        let sweep = {
            let g = rec().span("pipeline.prepare");
            let reader = TimedReader::new(store.stream(spec, 0, cfg.trace_len));
            let sweep =
                SweepReplay::prepare(reader, &base).expect("stream trace for replay prepare");
            g.count(sweep.len() as u64);
            sweep
        };
        let insts = sweep.len().max(1) as f64;
        let mut ipc = Vec::new();
        let mut mpki = Vec::new();
        for &scale in &scales {
            let g = rec().span("pipeline.lanes");
            let stats = sweep.simulate_many(&lanes, &base.scaled(scale));
            g.count((sweep.len() * lanes.len()) as u64);
            drop(g);
            if mpki.is_empty() {
                mpki = stats
                    .iter()
                    .map(|s| s.mispredictions as f64 * 1000.0 / insts)
                    .collect();
            }
            ipc.push(stats.iter().map(bp_pipeline::SimStats::ipc).collect());
        }
        HeteroGridRow {
            name: spec.name.clone(),
            ipc,
            mpki,
        }
    });
    HeteroGridStudy {
        scales,
        specs: grid_specs,
        rows,
    }
}

/// The report `grid_report` renders from a study.
fn grid_render(study: &HeteroGridStudy) -> String {
    let labels: Vec<String> = study.specs.iter().map(PredictorSpec::label).collect();
    let header = || {
        let mut h = vec!["application".to_owned()];
        h.extend(labels.iter().cloned());
        h
    };
    let mut report = Report::new();
    for (si, &scale) in study.scales.iter().enumerate() {
        let h = header();
        let mut table = Table::new(h.iter().map(String::as_str).collect());
        for row in &study.rows {
            let mut cells = vec![row.name.clone()];
            cells.extend(row.ipc[si].iter().map(|&v| f3(v)));
            table.row(cells);
        }
        report.section(
            format!("Grid ({scale}x pipeline): IPC per predictor lane"),
            format!("grid_{scale}x"),
            table,
        );
    }
    let h = header();
    let mut mpki_table = Table::new(h.iter().map(String::as_str).collect());
    for row in &study.rows {
        let mut cells = vec![row.name.clone()];
        cells.extend(row.mpki.iter().map(|&v| format!("{v:.2}")));
        mpki_table.row(cells);
    }
    report.section(
        "Grid: mispredictions per kilo-instruction (scale-independent)",
        "grid_mpki",
        mpki_table,
    );
    report.note(format!(
        "single pass per workload: {} predictor lanes trained in one lockstep walk, {} scales replayed from one prepared trace ({} cells)",
        study.specs.len(),
        study.scales.len(),
        study.specs.len() * study.scales.len(),
    ));
    report.render()
}

/// `bp_core::characterize_input` with a span around each layer call and a
/// timing predictor.
fn characterize_input_traced(
    trace: &Trace,
    input: u32,
    cfg: &DatasetConfig,
) -> InputCharacterization {
    let mut predictor = TageScL::kb8();
    let criteria = H2pCriteria::paper();
    let mut whole = BranchProfile::new();
    let mut h2ps_per_slice = Vec::new();
    let mut static_per_slice = Vec::new();
    let mut shares = Vec::new();
    let mut h2p_exec_means = Vec::new();
    for slice in trace.slices(cfg.slice) {
        let profile = {
            let g = rec().span("analysis.collect");
            g.count(slice.len() as u64);
            // A named wrapper is dropped, charging its time, before `g`.
            let mut timed = TimedPredictor::new(&mut predictor);
            BranchProfile::collect(&mut timed, slice)
        };
        let _g = rec().span("analysis.screen");
        let h2ps = criteria.screen_set(&profile, cfg.slice);
        static_per_slice.push(profile.static_branch_count());
        let total_miss = profile.total_mispredicts();
        let h2p_miss: u64 = h2ps
            .iter()
            .filter_map(|ip| profile.get(*ip))
            .map(|s| s.mispredicts)
            .sum();
        if total_miss > 0 {
            shares.push(h2p_miss as f64 / total_miss as f64);
        }
        if !h2ps.is_empty() {
            let execs: u64 = h2ps
                .iter()
                .filter_map(|ip| profile.get(*ip))
                .map(|s| s.execs)
                .sum();
            h2p_exec_means.push(execs as f64 / h2ps.len() as f64);
        }
        whole.merge(&profile);
        h2ps_per_slice.push(h2ps);
    }
    let h2p_union: HashSet<u64> = h2ps_per_slice.iter().flatten().copied().collect();
    let phases = {
        let _g = rec().span("analysis.phase");
        cluster_slices(trace, cfg.slice, PhaseConfig::default()).num_phases
    };
    InputCharacterization {
        input,
        profile: whole,
        h2p_union,
        static_per_slice,
        h2p_mispredict_share_per_slice: shares,
        h2p_execs_per_slice: mean(&h2p_exec_means),
        h2ps_per_slice,
        phases,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The per-workload aggregation `bp_core::characterize_workload` applies
/// to its per-input results.
fn aggregate(name: &str, per_input: Vec<InputCharacterization>) -> WorkloadCharacterization {
    let mut all_static: HashSet<u64> = HashSet::new();
    let mut h2p_input_count: HashMap<u64, u32> = HashMap::new();
    let mut statics_per_slice: Vec<usize> = Vec::new();
    for ic in &per_input {
        all_static.extend(ic.profile.iter().map(|(ip, _)| ip));
        for ip in &ic.h2p_union {
            *h2p_input_count.entry(*ip).or_default() += 1;
        }
        statics_per_slice.extend(&ic.static_per_slice);
    }
    statics_per_slice.sort_unstable();
    let per = |f: &dyn Fn(&InputCharacterization) -> f64| {
        mean(&per_input.iter().map(f).collect::<Vec<_>>())
    };
    let per_slice_counts: Vec<f64> = per_input
        .iter()
        .flat_map(|i| i.h2ps_per_slice.iter().map(|s| s.len() as f64))
        .collect();
    let shares: Vec<f64> = per_input
        .iter()
        .flat_map(|i| i.h2p_mispredict_share_per_slice.iter().copied())
        .collect();
    let execs: Vec<f64> = per_input
        .iter()
        .filter(|i| i.h2p_execs_per_slice > 0.0)
        .map(|i| i.h2p_execs_per_slice)
        .collect();
    WorkloadCharacterization {
        name: name.to_owned(),
        avg_phases: per(&|i| i.phases as f64),
        total_static_branches: all_static.len(),
        median_static_per_slice: statics_per_slice
            .get(statics_per_slice.len() / 2)
            .copied()
            .unwrap_or(0),
        avg_accuracy: per(&|i| i.profile.accuracy()),
        avg_accuracy_excl_h2p: per(&|i| i.profile.accuracy_excluding(&i.h2p_union)),
        h2p_union: h2p_input_count.keys().copied().collect(),
        h2p_3plus_inputs: h2p_input_count.values().filter(|&&c| c >= 3).count(),
        avg_h2p_per_input: per(&|i| i.h2p_union.len() as f64),
        avg_h2p_per_slice: mean(&per_slice_counts),
        avg_h2p_execs_per_slice: mean(&execs),
        avg_h2p_mispredict_share: mean(&shares),
        inputs: per_input,
    }
}

fn characterize(items: &[Item], dir: &Path, cfg: &DatasetConfig) -> IterOut {
    let mut table = Table::new(vec![
        "benchmark",
        "avg-phases",
        "static-br-total",
        "static-br-med/slice",
        "avg-acc",
        "acc-excl-h2p",
        "inputs",
        "h2p-total",
        "h2p-3+inputs",
        "h2p-avg/input",
        "h2p-avg/slice",
        "h2p-execs/slice",
        "h2p-mispred-share",
    ]);
    let suite = specint_suite();
    let mut means = [0.0f64; 12];
    let mut stats = Vec::new();
    let traced = rec().on();
    // One store for every input of the iteration, as `table1` has through
    // the process store: each trace is loaded from disk once and stays
    // resident until the iteration ends.
    let store = TraceStore::with_cache_dir(dir);
    for spec in &suite {
        let own: Vec<&Item> = items.iter().filter(|i| i.spec.name == spec.name).collect();
        let map = rec().span("core.map");
        let parent = map.id();
        let per_input = Engine::from_env().map(&own, |_, item| {
            let _task = rec().span_under("core.task", parent);
            let trace: Arc<Trace> = {
                let g = rec().span("trace.decode");
                let t = store.get(&item.spec, item.input, cfg.trace_len);
                g.count(t.len() as u64);
                t
            };
            if traced {
                characterize_input_traced(&trace, item.input, cfg)
            } else {
                characterize_input(&item.spec, &trace, item.input, cfg, &mut TageScL::kb8())
            }
        });
        drop(map);

        let _g = rec().span("analysis.aggregate");
        let c = aggregate(&spec.name, per_input);
        drop(_g);
        let _g = rec().span("bench.report");
        let cells = [
            c.avg_phases,
            c.total_static_branches as f64,
            c.median_static_per_slice as f64,
            c.avg_accuracy,
            c.avg_accuracy_excl_h2p,
            f64::from(cfg.inputs_for(spec.inputs)),
            c.h2p_union.len() as f64,
            c.h2p_3plus_inputs as f64,
            c.avg_h2p_per_input,
            c.avg_h2p_per_slice,
            c.avg_h2p_execs_per_slice,
            c.avg_h2p_mispredict_share,
        ];
        stats.extend(cells);
        for (m, v) in means.iter_mut().zip(cells) {
            *m += v / suite.len() as f64;
        }
        table.row(vec![
            c.name.clone(),
            format!("{:.1}", cells[0]),
            format!("{}", c.total_static_branches),
            format!("{}", c.median_static_per_slice),
            f3(cells[3]),
            f3(cells[4]),
            format!("{}", cells[5] as u64),
            format!("{}", c.h2p_union.len()),
            format!("{}", c.h2p_3plus_inputs),
            format!("{:.1}", cells[8]),
            format!("{:.1}", cells[9]),
            format!("{:.0}", cells[10]),
            pct(cells[11]),
        ]);
    }
    table.row(vec![
        "MEAN".into(),
        format!("{:.1}", means[0]),
        format!("{:.0}", means[1]),
        format!("{:.0}", means[2]),
        f3(means[3]),
        f3(means[4]),
        format!("{:.1}", means[5]),
        format!("{:.0}", means[6]),
        format!("{:.1}", means[7]),
        format!("{:.1}", means[8]),
        format!("{:.1}", means[9]),
        format!("{:.0}", means[10]),
        pct(means[11]),
    ]);
    let mut report = Report::new();
    report.section(
        "Table I: SPECint 2017 dataset summary (TAGE-SC-L 8KB)",
        "table1",
        table,
    );
    let s = store.stats();
    IterOut {
        stats,
        report: report.render(),
        records: (items.len() * cfg.trace_len) as u64,
        sampling: None,
        store_ok: s.generated == 0 && s.disk_loads == items.len() as u64,
    }
}

fn sampled(items: &[Item], dir: &Path, cfg: &DatasetConfig) -> IterOut {
    let resolved = SamplingConfig::default().resolve(cfg);
    let base = PipelineConfig::skylake();
    let traced = rec().on();
    let store = TraceStore::with_cache_dir(dir);
    let mut table = Table::new(vec![
        "workload", "ivals", "reps", "cover", "mpki", "mpki-est", "+/-", "err%", "in-ci", "ipc",
        "ipc-est",
    ]);
    let mut stats = Vec::new();
    let mut records = 0u64;
    let (mut worst_mpki, mut worst_ipc, mut contained) = (0.0f64, 0.0f64, 0usize);
    for item in items {
        let trace = {
            let g = rec().span("trace.decode");
            let t = store.get(&item.spec, item.input, cfg.trace_len);
            g.count(t.len() as u64);
            t
        };
        // Full replay: the golden.
        let flags = {
            let g = rec().span("predictors.train");
            let flags = misprediction_flags(&mut TageScL::kb8(), &trace);
            g.count(flags.len() as u64);
            flags
        };
        let sweep = {
            let g = rec().span("pipeline.prepare");
            g.count(trace.len() as u64);
            SweepReplay::new(&trace, &base)
        };
        let golden = {
            let g = rec().span("pipeline.lanes");
            g.count(trace.len() as u64);
            sweep.simulate(&flags, &base)
        };
        drop(sweep);

        // Sampled replay.
        let phase_cfg = PhaseConfig {
            max_phases: resolved.max_phases,
            ..PhaseConfig::default()
        };
        let profiles = {
            let g = rec().span("trace.profile");
            g.count(trace.len() as u64);
            profile_intervals(trace.reader(), resolved.interval_len, phase_cfg.dims)
                .expect("in-memory reader cannot fail")
        };
        let simpoints = {
            let _g = rec().span("analysis.simpoints");
            simpoints_from_profiles(&profiles, &phase_cfg)
        };
        let plan = SamplePlan {
            interval_len: resolved.interval_len,
            warmup: resolved.warmup,
            segments: simpoints
                .representatives
                .iter()
                .map(|r| SampleSegment {
                    interval: r.interval,
                    weight: r.weight,
                    spread: r.spread,
                })
                .collect(),
        };
        let replay = {
            let g = rec().span("pipeline.sample_prepare");
            g.count(trace.len() as u64);
            SampledReplay::prepare(trace.reader(), &base, &plan)
                .expect("in-memory reader cannot fail")
        };
        let lanes = {
            let g = rec().span("pipeline.warm");
            g.count(trace.len() as u64);
            let mut predictor = TageScL::kb8();
            let p: &mut dyn DirectionPredictor = &mut predictor;
            if traced {
                replay.warmed_lanes(trace.reader(), &mut TimedPredictor::new(p))
            } else {
                replay.warmed_lanes(trace.reader(), p)
            }
            .expect("in-memory reader cannot fail")
        };
        let est = {
            let g = rec().span("pipeline.weighted");
            let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
            let est = replay.simulate_weighted(&refs, &base);
            g.count(est.sampled_records);
            est
        };

        let _g = rec().span("bench.report");
        let golden_mpki = golden.mpki();
        let golden_ipc = golden.ipc();
        let mpki_err = (est.mpki - golden_mpki).abs() / golden_mpki.max(f64::MIN_POSITIVE);
        let ipc_err = (est.ipc - golden_ipc).abs() / golden_ipc.max(f64::MIN_POSITIVE);
        let within = est.mpki_contains(golden_mpki);
        worst_mpki = worst_mpki.max(mpki_err);
        worst_ipc = worst_ipc.max(ipc_err);
        contained += usize::from(within);
        records += 3 * trace.len() as u64 + est.sampled_records;
        stats.extend([
            golden.cycles as f64,
            golden.instructions as f64,
            golden.mispredictions as f64,
            est.mpki,
            est.mpki_half,
            est.ipc,
            est.ipc_half,
            est.sampled_records as f64,
            profiles.len() as f64,
            replay.num_segments() as f64,
        ]);
        table.row(vec![
            item.spec.name.clone(),
            profiles.len().to_string(),
            replay.num_segments().to_string(),
            format!("{:.1}%", est.coverage() * 100.0),
            f3(golden_mpki),
            f3(est.mpki),
            f3(est.mpki_half),
            format!("{:.2}", mpki_err * 100.0),
            if within { "yes" } else { "NO" }.to_owned(),
            f3(golden_ipc),
            f3(est.ipc),
        ]);
    }
    let mut report = Report::new();
    report.note(format!(
        "sampled replay: interval {} insts, warmup {} insts, max {} phases",
        resolved.interval_len, resolved.warmup, resolved.max_phases
    ));
    report.section(
        "sampled replay vs full-replay golden (TAGE-SC-L 8KB, Skylake baseline)",
        "sampled",
        table,
    );
    report.note(format!(
        "golden contained in {contained}/{} intervals; worst MPKI error {:.2}%",
        items.len(),
        worst_mpki * 100.0
    ));
    let s = store.stats();
    IterOut {
        stats,
        report: report.render(),
        records,
        sampling: Some((
            worst_mpki * 100.0,
            worst_ipc * 100.0,
            (items.len() - contained) as u64,
        )),
        store_ok: s.generated == 0 && s.disk_loads == items.len() as u64,
    }
}
