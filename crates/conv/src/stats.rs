//! Per-stage execution timing (the data behind paper Fig. 10).

use std::time::Duration;

/// Wall-clock breakdown of one convolution execution into the pipeline
/// stages of paper Fig. 3: the memory-bound transformations (input ①
/// and output ③) and the compute-bound matrix multiplication ②.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Input transformation (gather → transform → quantize → scatter).
    pub input_transform: Duration,
    /// Batched matrix multiplication.
    pub gemm: Duration,
    /// Output transformation (de-quantize → transform → scatter).
    pub output_transform: Duration,
}

impl StageTimings {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.input_transform + self.gemm + self.output_transform
    }

    /// Combined transformation time (the "Transformation" bar of Fig. 10).
    pub fn transform(&self) -> Duration {
        self.input_transform + self.output_transform
    }

    /// Element-wise accumulation — used when averaging repeated runs.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.input_transform += other.input_transform;
        self.gemm += other.gemm;
        self.output_transform += other.output_transform;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_averaging() {
        let a = StageTimings {
            input_transform: Duration::from_millis(2),
            gemm: Duration::from_millis(10),
            output_transform: Duration::from_millis(3),
        };
        assert_eq!(a.total(), Duration::from_millis(15));
        assert_eq!(a.transform(), Duration::from_millis(5));
        let mut acc = StageTimings::default();
        acc.accumulate(&a);
        acc.accumulate(&a);
        assert_eq!(acc.gemm, Duration::from_millis(20));
        assert_eq!(acc.total(), 2 * a.total());
    }
}
