//! Pipeline capacity configuration.
//!
//! The paper scales "fetch, decode, execution, load/store buffer, ROB,
//! scheduler, and retire resources" of a Skylake-like core by 1x–32x
//! (Fig. 1). [`PipelineConfig::skylake`] is the 1x baseline;
//! [`PipelineConfig::scaled`] produces the scaled designs. Cache capacity
//! is deliberately *not* scaled — the paper scales core resources only.

use crate::cache::CacheConfig;

/// Capacity and latency parameters of the modeled out-of-order core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions entering the window per cycle (fetch/decode/dispatch).
    pub fetch_width: u32,
    /// Instructions retiring per cycle.
    pub retire_width: u32,
    /// Reorder-buffer capacity.
    pub rob_size: u32,
    /// Front-end refill penalty after a branch misprediction resolves, in
    /// cycles (pipeline depth).
    pub mispredict_penalty: u32,
    /// Integer multiply latency in cycles.
    pub mul_latency: u32,
    /// Data-cache hierarchy (fixed across pipeline scalings).
    pub cache: CacheConfig,
    /// The capacity scaling factor this configuration represents.
    pub scale: u32,
}

impl PipelineConfig {
    /// The 1x baseline, calibrated to an Intel Skylake-class core.
    #[must_use]
    pub fn skylake() -> Self {
        PipelineConfig {
            fetch_width: 4,
            retire_width: 4,
            rob_size: 224,
            mispredict_penalty: 17,
            mul_latency: 3,
            cache: CacheConfig::skylake(),
            scale: 1,
        }
    }

    /// Scales pipeline *capacity* (widths and buffers) by `factor`,
    /// leaving latencies and the refill penalty fixed, as in the paper's
    /// methodology.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or greater than [`Self::MAX_SCALE`].
    #[must_use]
    pub fn scaled(&self, factor: u32) -> Self {
        assert!((1..=Self::MAX_SCALE).contains(&factor), "scale factor must be 1..=64");
        PipelineConfig {
            fetch_width: self.fetch_width * factor,
            retire_width: self.retire_width * factor,
            rob_size: self.rob_size * factor,
            mispredict_penalty: self.mispredict_penalty,
            mul_latency: self.mul_latency,
            cache: self.cache.clone(),
            scale: self.scale * factor,
        }
    }

    /// The scaling factors measured in the paper (Figs. 1, 5, 7).
    pub const SCALES: [u32; 6] = [1, 2, 4, 8, 16, 32];

    /// The largest factor [`Self::scaled`] accepts.
    pub const MAX_SCALE: u32 = 64;
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_multiplies_capacity_only() {
        let base = PipelineConfig::skylake();
        let big = base.scaled(8);
        assert_eq!(big.fetch_width, base.fetch_width * 8);
        assert_eq!(big.rob_size, base.rob_size * 8);
        assert_eq!(big.mispredict_penalty, base.mispredict_penalty);
        assert_eq!(big.cache, base.cache);
        assert_eq!(big.scale, 8);
    }

    #[test]
    fn scaling_composes() {
        let c = PipelineConfig::skylake().scaled(2).scaled(4);
        assert_eq!(c.scale, 8);
        assert_eq!(c.fetch_width, 32);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_panics() {
        let _ = PipelineConfig::skylake().scaled(0);
    }
}
