//! Predictor configuration factory and single-pass lockstep evaluation.
//!
//! The paper's studies are sweeps: the same branch stream scored under
//! many predictor configurations (six TAGE-SC-L storage points in Fig. 7,
//! seven predictor generations in the §II survey, three aging policies in
//! the ablation). [`PredictorSpec`] names each configuration as data, and
//! [`sweep_flags_stream`] / [`sweep_measure_stream`] step any set of
//! predictors through **one** pass over the trace's conditional branches
//! instead of re-iterating (and re-decoding) the trace once per
//! configuration.
//!
//! Each predictor still observes exactly the per-branch sequence it would
//! see in a solo [`measure`](crate::measure) /
//! [`misprediction_flags`](crate::misprediction_flags) run — predictors
//! never interact — so flags, accuracies, and instrumentation counters
//! are bit-identical to the per-config passes they replace.

use bp_trace::{ReadTraceError, TraceReader};

use crate::eval::AccuracyStats;
use crate::oracle::{DirectionPredictor, PerfectPredictor};
use crate::ppm::{Ppm, PpmConfig};
use crate::simple::{AlwaysTaken, Bimodal, GShare, TwoLevelLocal};
use crate::tagescl::{TageScL, TageSclConfig};
use crate::tournament::Tournament;
use crate::perceptron::Perceptron;

/// A buildable, nameable predictor configuration.
///
/// Specs are plain data: they can be parsed from CLI arguments
/// ([`PredictorSpec::parse`]), listed ([`PredictorSpec::storage_points`],
/// [`PredictorSpec::survey`]), and instantiated on demand
/// ([`PredictorSpec::build`]) into an object-safe
/// [`DirectionPredictor`] replay handle.
///
/// # Examples
///
/// ```
/// use bp_predictors::PredictorSpec;
///
/// let spec = PredictorSpec::parse("tage-sc-l-64kb").unwrap();
/// assert_eq!(spec, PredictorSpec::TageScl { storage_kb: 64 });
/// assert_eq!(spec.label(), "tage-sc-l-64kb");
/// let mut p = spec.build();
/// let _ = p.predict_and_train(0x40, true);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Full TAGE-SC-L at a paper storage point (Fig. 7 sweep axis).
    TageScl {
        /// Storage budget in KB (8–1024 in the paper's Fig. 7).
        storage_kb: usize,
    },
    /// TAGE component only (no SC, no loop predictor) — ablation rows.
    TageOnly {
        /// Storage budget in KB.
        storage_kb: usize,
    },
    /// TAGE + loop predictor, no statistical corrector — ablation rows.
    TageL {
        /// Storage budget in KB.
        storage_kb: usize,
    },
    /// Per-IP 2-bit counters (1990s baseline).
    Bimodal {
        /// log2 of the counter-table size.
        log2_entries: u32,
    },
    /// Two-level local-history predictor.
    TwoLevelLocal {
        /// log2 of the per-IP history table size.
        hist_log2: u32,
        /// Local history bits per entry.
        local_bits: u32,
    },
    /// Global-history XOR-indexed counters.
    GShare {
        /// log2 of the counter-table size.
        log2_entries: u32,
        /// Global history bits folded into the index.
        history_bits: u32,
    },
    /// Alpha 21264-style local/global chooser.
    Tournament {
        /// log2 of the component table sizes.
        log2_entries: u32,
    },
    /// Jiménez–Lin perceptron predictor.
    Perceptron {
        /// log2 of the weight-table size.
        table_log2: u32,
        /// Global history length (weights per perceptron).
        history_len: usize,
    },
    /// PPM-like tagged geometric-history predictor (TAGE ancestor).
    Ppm,
    /// Static always-taken baseline.
    AlwaysTaken,
    /// Oracle that never mispredicts (the paper's "Perfect BP" bound).
    Perfect,
}

impl PredictorSpec {
    /// The §II survey lineup: one representative per predictor
    /// generation, in publication order, as used by the `baselines`
    /// study.
    #[must_use]
    pub fn survey() -> Vec<PredictorSpec> {
        vec![
            PredictorSpec::Bimodal { log2_entries: 12 },
            PredictorSpec::TwoLevelLocal {
                hist_log2: 11,
                local_bits: 10,
            },
            PredictorSpec::GShare {
                log2_entries: 13,
                history_bits: 16,
            },
            PredictorSpec::Tournament { log2_entries: 12 },
            PredictorSpec::Perceptron {
                table_log2: 9,
                history_len: 32,
            },
            PredictorSpec::Ppm,
            PredictorSpec::TageScl { storage_kb: 8 },
        ]
    }

    /// The Fig. 7 storage-scaling axis: full TAGE-SC-L at every paper
    /// storage point.
    #[must_use]
    pub fn storage_points() -> Vec<PredictorSpec> {
        TageSclConfig::STORAGE_POINTS_KB
            .iter()
            .map(|&kb| PredictorSpec::TageScl { storage_kb: kb })
            .collect()
    }

    /// The heterogeneous grid lineup: every distinct configuration the
    /// paper's per-workload grids draw on, trained together in one
    /// lockstep trace walk by the `grid` study.
    ///
    /// Sixteen specs — the six Fig. 7 TAGE-SC-L storage points, the
    /// 8 KB TAGE-only and TAGE-L ablation rows, the six classical §II
    /// survey generations, the always-taken floor, and the perfect
    /// ceiling — i.e. mixed TAGE sizes, SC on/off, and classical
    /// baselines in a single pass.
    #[must_use]
    pub fn hetero_grid() -> Vec<PredictorSpec> {
        let mut specs = Self::storage_points();
        specs.push(PredictorSpec::TageOnly { storage_kb: 8 });
        specs.push(PredictorSpec::TageL { storage_kb: 8 });
        specs.extend(
            Self::survey()
                .into_iter()
                .filter(|s| !matches!(s, PredictorSpec::TageScl { .. })),
        );
        specs.push(PredictorSpec::AlwaysTaken);
        specs.push(PredictorSpec::Perfect);
        specs
    }

    /// Parses a comma-separated list of canonical labels (the CLI's
    /// `--predictors` syntax). Whitespace around items is ignored; empty
    /// items are rejected.
    ///
    /// # Errors
    ///
    /// Returns the first per-label [`PredictorSpec::parse`] error.
    pub fn parse_list(s: &str) -> Result<Vec<PredictorSpec>, String> {
        s.split(',')
            .map(|item| PredictorSpec::parse(item.trim()))
            .collect()
    }

    /// Builds every spec in `specs`, in order — the lane lineup fed to
    /// [`sweep_flags_stream`] and friends.
    #[must_use]
    pub fn build_all(specs: &[PredictorSpec]) -> Vec<Box<dyn DirectionPredictor>> {
        specs.iter().map(PredictorSpec::build).collect()
    }

    /// Instantiates the configured predictor behind an object-safe
    /// replay handle.
    #[must_use]
    pub fn build(&self) -> Box<dyn DirectionPredictor> {
        match *self {
            PredictorSpec::TageScl { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::storage_kb(storage_kb)))
            }
            PredictorSpec::TageOnly { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::tage_only(storage_kb)))
            }
            PredictorSpec::TageL { storage_kb } => {
                Box::new(TageScL::new(TageSclConfig::tage_l(storage_kb)))
            }
            PredictorSpec::Bimodal { log2_entries } => Box::new(Bimodal::new(log2_entries)),
            PredictorSpec::TwoLevelLocal {
                hist_log2,
                local_bits,
            } => Box::new(TwoLevelLocal::new(hist_log2, local_bits)),
            PredictorSpec::GShare {
                log2_entries,
                history_bits,
            } => Box::new(GShare::new(log2_entries, history_bits)),
            PredictorSpec::Tournament { log2_entries } => Box::new(Tournament::new(log2_entries)),
            PredictorSpec::Perceptron {
                table_log2,
                history_len,
            } => Box::new(Perceptron::new(table_log2, history_len)),
            PredictorSpec::Ppm => Box::new(Ppm::new(PpmConfig::default())),
            PredictorSpec::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorSpec::Perfect => Box::new(PerfectPredictor),
        }
    }

    /// Canonical CLI/report label; [`PredictorSpec::parse`] is its
    /// inverse.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            PredictorSpec::TageScl { storage_kb } => format!("tage-sc-l-{storage_kb}kb"),
            PredictorSpec::TageOnly { storage_kb } => format!("tage-{storage_kb}kb"),
            PredictorSpec::TageL { storage_kb } => format!("tage-l-{storage_kb}kb"),
            PredictorSpec::Bimodal { .. } => "bimodal".to_string(),
            PredictorSpec::TwoLevelLocal { .. } => "two-level-local".to_string(),
            PredictorSpec::GShare { .. } => "gshare".to_string(),
            PredictorSpec::Tournament { .. } => "tournament".to_string(),
            PredictorSpec::Perceptron { .. } => "perceptron".to_string(),
            PredictorSpec::Ppm => "ppm".to_string(),
            PredictorSpec::AlwaysTaken => "always-taken".to_string(),
            PredictorSpec::Perfect => "perfect".to_string(),
        }
    }

    /// Parses a canonical label (as printed by `branch-lab list` and
    /// accepted by the CLI's sweep options) back into a spec.
    ///
    /// Sized families accept a `-<N>kb` suffix: `tage-sc-l-64kb`,
    /// `tage-8kb` (TAGE only), `tage-l-8kb`. Fixed-configuration
    /// baselines are bare names: `bimodal`, `two-level-local`, `gshare`,
    /// `tournament`, `perceptron`, `ppm`, `always-taken`, `perfect`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown label and listing the
    /// accepted forms.
    pub fn parse(s: &str) -> Result<PredictorSpec, String> {
        fn kb_suffix(s: &str, prefix: &str) -> Option<usize> {
            s.strip_prefix(prefix)?
                .strip_suffix("kb")?
                .parse::<usize>()
                .ok()
                .filter(|&kb| kb > 0)
        }
        if let Some(kb) = kb_suffix(s, "tage-sc-l-") {
            return Ok(PredictorSpec::TageScl { storage_kb: kb });
        }
        if let Some(kb) = kb_suffix(s, "tage-l-") {
            return Ok(PredictorSpec::TageL { storage_kb: kb });
        }
        if let Some(kb) = kb_suffix(s, "tage-") {
            return Ok(PredictorSpec::TageOnly { storage_kb: kb });
        }
        match s {
            "bimodal" => Ok(PredictorSpec::Bimodal { log2_entries: 12 }),
            "two-level-local" => Ok(PredictorSpec::TwoLevelLocal {
                hist_log2: 11,
                local_bits: 10,
            }),
            "gshare" => Ok(PredictorSpec::GShare {
                log2_entries: 13,
                history_bits: 16,
            }),
            "tournament" => Ok(PredictorSpec::Tournament { log2_entries: 12 }),
            "perceptron" => Ok(PredictorSpec::Perceptron {
                table_log2: 9,
                history_len: 32,
            }),
            "ppm" => Ok(PredictorSpec::Ppm),
            "always-taken" => Ok(PredictorSpec::AlwaysTaken),
            "perfect" => Ok(PredictorSpec::Perfect),
            other => Err(format!(
                "unknown predictor '{other}'; expected one of bimodal, \
                 two-level-local, gshare, tournament, perceptron, ppm, \
                 always-taken, perfect, tage-sc-l-<N>kb, tage-<N>kb, \
                 tage-l-<N>kb"
            )),
        }
    }
}

/// Branches buffered per block in the lockstep sweeps.
///
/// Predictors process the stream block-by-block rather than interleaving
/// per branch: within a block each predictor's tables stay cache-resident
/// instead of evicting the other configurations' tables on every branch
/// (six TAGE-SC-L points together are megabytes of state). The trace is
/// still scanned exactly once, and each predictor still consumes the
/// identical branch sequence in order.
const SWEEP_BLOCK: usize = 16384;

/// Re-blocks a record stream's conditional branches into
/// [`SWEEP_BLOCK`]-sized `(ip, taken)` batches, independent of how the
/// reader chunks the stream — so every sweep sees the identical blocking
/// (and produces bit-identical results) whether the trace comes from
/// memory or block-wise file decode.
fn stream_branch_blocks<R: TraceReader>(
    mut reader: R,
    mut run: impl FnMut(&[(u64, bool)]),
) -> Result<(), ReadTraceError> {
    let mut block: Vec<(u64, bool)> = Vec::with_capacity(SWEEP_BLOCK);
    while let Some(chunk) = reader.next_chunk()? {
        // Cooperative cancellation once per streamed chunk (a no-op
        // without an installed scope): a cancelled sweep stops training
        // within one block instead of finishing the trace.
        bp_metrics::cancel::checkpoint("sweep.train");
        for inst in chunk {
            if let Some(b) = inst.branch {
                if b.kind == bp_trace::BranchKind::Conditional {
                    block.push((inst.ip, b.taken));
                    if block.len() == SWEEP_BLOCK {
                        run(&block);
                        block.clear();
                    }
                }
            }
        }
    }
    if !block.is_empty() {
        run(&block);
    }
    Ok(())
}

/// Steps every predictor through one pass over the conditional branches
/// of `reader`, returning one misprediction-flag stream per predictor
/// (same order). Pass [`Trace::reader`](bp_trace::Trace::reader) for an
/// in-memory trace; a block-wise file reader never materializes it.
///
/// Equivalent to calling
/// [`misprediction_flags`](crate::misprediction_flags) once per predictor
/// — each predictor sees the identical (ip, taken) sequence and produces
/// the identical flags — but the trace is decoded and iterated once
/// instead of `predictors.len()` times.
///
/// # Errors
///
/// Propagates any [`ReadTraceError`] from the underlying stream.
pub fn sweep_flags_stream<R: TraceReader>(
    predictors: &mut [Box<dyn DirectionPredictor>],
    reader: R,
) -> Result<Vec<Vec<bool>>, ReadTraceError> {
    sweep_flags_stream_observed(predictors, reader, |_, _| {})
}

/// [`sweep_flags_stream`], invoking `observe` after every processed
/// block with the cumulative branch count and the predictors (for
/// example to record [`DirectionPredictor::state_digest`] checkpoints).
///
/// Blocking is an implementation detail of cache residency, not of
/// predictor behaviour: after `observe(n, ..)`, every predictor has
/// consumed exactly the first `n` branches of the stream — the same
/// state a solo run reaches after `n` branches — which is what lets the
/// differential suite compare digests mid-stream.
///
/// # Errors
///
/// Propagates any [`ReadTraceError`] from the underlying stream.
pub fn sweep_flags_stream_observed<R: TraceReader>(
    predictors: &mut [Box<dyn DirectionPredictor>],
    reader: R,
    mut observe: impl FnMut(usize, &[Box<dyn DirectionPredictor>]),
) -> Result<Vec<Vec<bool>>, ReadTraceError> {
    let mut flags: Vec<Vec<bool>> = predictors.iter().map(|_| Vec::new()).collect();
    let mut seen = 0usize;
    stream_branch_blocks(reader, |block| {
        for (p, f) in predictors.iter_mut().zip(flags.iter_mut()) {
            for &(ip, taken) in block {
                f.push(p.predict_and_train(ip, taken) != taken);
            }
        }
        seen += block.len();
        observe(seen, predictors);
    })?;
    Ok(flags)
}

/// Single-pass counterpart of [`measure`](crate::measure): aggregate
/// accuracy for every predictor from one iteration of the branch stream
/// in `reader`. With a block-wise file reader, peak memory is bounded by
/// one decode block regardless of trace length — the path long-horizon
/// accuracy studies use.
///
/// # Errors
///
/// Propagates any [`ReadTraceError`] from the underlying stream.
pub fn sweep_measure_stream<R: TraceReader>(
    predictors: &mut [Box<dyn DirectionPredictor>],
    reader: R,
) -> Result<Vec<AccuracyStats>, ReadTraceError> {
    let mut stats = vec![AccuracyStats::default(); predictors.len()];
    stream_branch_blocks(reader, |block| {
        for (p, s) in predictors.iter_mut().zip(stats.iter_mut()) {
            for &(ip, taken) in block {
                s.record(p.predict_and_train(ip, taken) == taken);
            }
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{measure, misprediction_flags};
    use bp_trace::{RetiredInst, Trace, TraceMeta};

    fn noisy_trace(n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("spec-test", 0));
        let mut state = 41u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ip = 0x40 + (state % 13) * 4;
            let taken = (state >> 17) % 5 < 3 || i % 7 == 0;
            t.push(RetiredInst::cond_branch(ip, taken, ip + 64, None, None));
        }
        t
    }

    #[test]
    fn labels_round_trip_through_parse() {
        let mut specs = PredictorSpec::survey();
        specs.extend(PredictorSpec::storage_points());
        specs.push(PredictorSpec::TageL { storage_kb: 8 });
        specs.push(PredictorSpec::TageOnly { storage_kb: 64 });
        specs.push(PredictorSpec::AlwaysTaken);
        specs.push(PredictorSpec::Perfect);
        for spec in specs {
            assert_eq!(PredictorSpec::parse(&spec.label()), Ok(spec));
        }
        assert!(PredictorSpec::parse("tage-sc-l-0kb").is_err());
        assert!(PredictorSpec::parse("neural-net").is_err());
    }

    #[test]
    fn sweep_flags_matches_per_predictor_passes() {
        let t = noisy_trace(4_000);
        let specs = PredictorSpec::survey();
        let mut lockstep: Vec<_> = specs.iter().map(PredictorSpec::build).collect();
        let swept = sweep_flags_stream(&mut lockstep, t.reader()).unwrap();
        for (spec, flags) in specs.iter().zip(&swept) {
            let solo = misprediction_flags(spec.build().as_mut(), &t);
            assert_eq!(*flags, solo, "{}", spec.label());
        }
    }

    #[test]
    fn sweep_measure_matches_measure() {
        let t = noisy_trace(4_000);
        let specs = PredictorSpec::survey();
        let mut lockstep: Vec<_> = specs.iter().map(PredictorSpec::build).collect();
        let swept = sweep_measure_stream(&mut lockstep, t.reader()).unwrap();
        for (spec, stats) in specs.iter().zip(&swept) {
            assert_eq!(*stats, measure(spec.build().as_mut(), &t), "{}", spec.label());
        }
    }

    #[test]
    fn streamed_sweeps_match_in_memory_sweeps() {
        // The same trace through the block-wise file decoder must yield
        // bit-identical flags and stats: chunk boundaries carry no
        // meaning once re-blocked to SWEEP_BLOCK.
        let t = noisy_trace(50_000);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let specs = PredictorSpec::survey();

        let mut mem = specs.iter().map(PredictorSpec::build).collect::<Vec<_>>();
        let mem_flags = sweep_flags_stream(&mut mem, t.reader()).unwrap();
        let mut streamed = specs.iter().map(PredictorSpec::build).collect::<Vec<_>>();
        let reader = bp_trace::BptrReader::new(bytes.as_slice()).unwrap();
        let stream_flags = sweep_flags_stream(&mut streamed, reader).unwrap();
        assert_eq!(mem_flags, stream_flags);

        let mut mem = specs.iter().map(PredictorSpec::build).collect::<Vec<_>>();
        let mem_stats = sweep_measure_stream(&mut mem, t.reader()).unwrap();
        let mut streamed = specs.iter().map(PredictorSpec::build).collect::<Vec<_>>();
        let reader = bp_trace::BptrReader::new(bytes.as_slice()).unwrap();
        let stream_stats = sweep_measure_stream(&mut streamed, reader).unwrap();
        assert_eq!(mem_stats, stream_stats);
    }

    #[test]
    fn hetero_grid_is_sixteen_distinct_buildable_specs() {
        let grid = PredictorSpec::hetero_grid();
        assert_eq!(grid.len(), 16);
        for (i, a) in grid.iter().enumerate() {
            assert!(grid[i + 1..].iter().all(|b| a != b), "duplicate {a:?}");
            // Every grid spec round-trips through its label and builds.
            assert_eq!(PredictorSpec::parse(&a.label()), Ok(*a));
            let _ = a.build();
        }
    }

    #[test]
    fn parse_list_accepts_spaced_labels_and_rejects_unknowns() {
        let specs = PredictorSpec::parse_list("gshare, tage-sc-l-64kb ,perfect").unwrap();
        assert_eq!(
            specs,
            vec![
                PredictorSpec::GShare {
                    log2_entries: 13,
                    history_bits: 16
                },
                PredictorSpec::TageScl { storage_kb: 64 },
                PredictorSpec::Perfect,
            ]
        );
        assert!(PredictorSpec::parse_list("gshare,,perfect").is_err());
        assert!(PredictorSpec::parse_list("gshare,warp-drive").is_err());
    }

    #[test]
    fn observed_sweep_checkpoints_match_solo_replay() {
        // After the observer reports n branches consumed, each lockstep
        // predictor's digest must equal a solo predictor fed exactly the
        // first n branches — blocking must not be observable.
        let t = noisy_trace(40_000);
        let branches: Vec<(u64, bool)> = t
            .iter()
            .filter_map(|i| i.branch.map(|b| (i.ip, b.taken)))
            .collect();
        let specs = [
            PredictorSpec::GShare {
                log2_entries: 10,
                history_bits: 12,
            },
            PredictorSpec::TageScl { storage_kb: 8 },
        ];
        let mut lockstep = PredictorSpec::build_all(&specs);
        let mut checkpoints: Vec<(usize, Vec<u64>)> = Vec::new();
        let _ = sweep_flags_stream_observed(&mut lockstep, t.reader(), |n, ps| {
            checkpoints.push((n, ps.iter().map(|p| p.state_digest()).collect()));
        })
        .unwrap();
        assert!(checkpoints.len() >= 2, "expected multiple blocks");

        let mut solo = PredictorSpec::build_all(&specs);
        let mut fed = 0usize;
        for (n, digests) in &checkpoints {
            for &(ip, taken) in &branches[fed..*n] {
                for p in &mut solo {
                    let _ = p.predict_and_train(ip, taken);
                }
            }
            fed = *n;
            let solo_digests: Vec<u64> = solo.iter().map(|p| p.state_digest()).collect();
            assert_eq!(digests, &solo_digests, "checkpoint at {n}");
        }
    }

    #[test]
    fn perfect_spec_never_mispredicts() {
        let t = noisy_trace(500);
        let mut ps = vec![PredictorSpec::Perfect.build()];
        let flags = sweep_flags_stream(&mut ps, t.reader()).unwrap();
        assert!(flags[0].iter().all(|&f| !f));
    }
}
