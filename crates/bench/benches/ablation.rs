//! Ablation benches for the design choices called out in DESIGN.md:
//! predictor-component cost (TAGE vs TAGE-L vs TAGE-SC-L), history-length
//! limits, and float vs 2-bit CNN inference. Accuracy-side ablations live
//! in `cargo run --release --bin branch-lab -- run ablation`.

use bp_bench::BenchGroup;
use bp_helpers::{CnnNet, HistoryEncoder};
use bp_predictors::{Predictor, TageConfig, TageScL, TageSclConfig};
use bp_workloads::specint_suite;

fn main() {
    let spec = &specint_suite()[6];
    let stream: Vec<(u64, bool)> = spec
        .trace(0, 150_000)
        .conditional_branches()
        .map(|b| (b.ip, b.taken))
        .collect();

    let replay = |mut p: TageScL| {
        let mut wrong = 0u64;
        for &(ip, taken) in &stream {
            let pred = p.predict(ip);
            p.update(ip, taken, pred);
            wrong += u64::from(pred != taken);
        }
        wrong
    };

    let group = BenchGroup::new("ablation-components").throughput(stream.len() as u64);
    let configs = [
        ("tage-only", TageSclConfig::tage_only(8)),
        ("tage-l", TageSclConfig::tage_l(8)),
        ("tage-sc-l", TageSclConfig::storage_kb(8)),
    ];
    for (name, cfg) in &configs {
        group.bench(name, || replay(TageScL::new(cfg.clone())));
    }

    // History-length limit at fixed storage.
    let group = BenchGroup::new("ablation-history-limit").throughput(stream.len() as u64);
    for max_hist in [500usize, 1000, 3000] {
        group.bench(&max_hist.to_string(), || {
            let mut cfg = TageSclConfig::storage_kb(8);
            cfg.tage = TageConfig { max_hist, ..cfg.tage };
            replay(TageScL::new(cfg))
        });
    }

    // Float vs 2-bit CNN inference.
    let mut net = CnnNet::new(12, 64, 4);
    let window: Vec<u16> = (0..32)
        .map(|i| HistoryEncoder::bucket_of(0x400 + i * 4, i % 3 == 0, 64))
        .collect();
    for _ in 0..200 {
        net.train_step(&window, true, 0.05);
    }
    let quant = net.quantize();

    let group = BenchGroup::new("ablation-cnn-precision").samples(20);
    group.bench("f32-forward", || net.forward(&window).score);
    group.bench("2bit-forward", || quant.forward(&window).score);
}
