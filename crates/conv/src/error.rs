//! Error types for convolution planning and execution.
//!
//! [`ConvError`] covers planning/construction-time failures; [`ExecError`]
//! covers *runtime* failures of a prepared executor's `execute` call —
//! conditions a long-lived inference process must recover from (retry,
//! demote to a sturdier algorithm) rather than abort on.

use lowino_tensor::ShapeError;
use lowino_winograd::matrices::MatrixError;

/// Errors surfaced when constructing or running a convolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvError {
    /// Invalid layer shape.
    Shape(ShapeError),
    /// Unsupported Winograd algorithm.
    Matrix(MatrixError),
    /// Weight tensor dimensions don't match the layer spec.
    WeightShape {
        /// Expected (K, C, r, r).
        expected: (usize, usize, usize, usize),
        /// What was provided.
        got: (usize, usize, usize, usize),
    },
    /// The algorithm can't support this configuration (with reason).
    Unsupported(String),
    /// Calibration failed (e.g. empty sample set).
    Calibration(String),
    /// A prepared executor failed at runtime.
    Exec(ExecError),
}

impl core::fmt::Display for ConvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConvError::Shape(e) => write!(f, "shape error: {e}"),
            ConvError::Matrix(e) => write!(f, "matrix error: {e}"),
            ConvError::WeightShape { expected, got } => {
                write!(f, "weight shape mismatch: expected {expected:?}, got {got:?}")
            }
            ConvError::Unsupported(s) => write!(f, "unsupported configuration: {s}"),
            ConvError::Calibration(s) => write!(f, "calibration error: {s}"),
            ConvError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ConvError {}

/// Runtime failure of a prepared executor's `execute` call.
///
/// Every variant is recoverable: the executor and its context (pool,
/// scratch) remain usable, so a caller may retry with fixed inputs or
/// demote to another algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An input or output tensor doesn't match the planned spec.
    IoShape {
        /// Which tensor mismatched (`"input"` / `"output"`).
        which: &'static str,
        /// Dims the spec requires, `(B, C, H, W)`.
        expected: (usize, usize, usize, usize),
        /// Dims that were provided.
        got: (usize, usize, usize, usize),
    },
    /// A worker panicked inside the fork-join; the pool recovered and
    /// stays usable, the output buffer contents are unspecified.
    WorkerPanic {
        /// The captured panic message.
        message: String,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::IoShape {
                which,
                expected,
                got,
            } => write!(
                f,
                "{which} dims don't match spec: expected {expected:?}, got {got:?}"
            ),
            ExecError::WorkerPanic { message } => write!(f, "worker panic: {message}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ExecError> for ConvError {
    fn from(e: ExecError) -> Self {
        ConvError::Exec(e)
    }
}

impl From<lowino_parallel::JobPanic> for ExecError {
    fn from(p: lowino_parallel::JobPanic) -> Self {
        ExecError::WorkerPanic { message: p.message }
    }
}

impl From<ShapeError> for ConvError {
    fn from(e: ShapeError) -> Self {
        ConvError::Shape(e)
    }
}

impl From<MatrixError> for ConvError {
    fn from(e: MatrixError) -> Self {
        ConvError::Matrix(e)
    }
}

/// Validate a weight tensor against a spec; shared by all constructors.
pub(crate) fn check_weights(
    spec: &lowino_tensor::ConvShape,
    weights: &lowino_tensor::Tensor4,
) -> Result<(), ConvError> {
    let got = weights.dims();
    let expected = (spec.out_c, spec.in_c, spec.r, spec.r);
    if got != expected {
        return Err(ConvError::WeightShape { expected, got });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_tensor::{ConvShape, Tensor4};

    #[test]
    fn weight_check() {
        let spec = ConvShape::same(1, 4, 8, 6, 3);
        assert!(check_weights(&spec, &Tensor4::zeros(8, 4, 3, 3)).is_ok());
        let err = check_weights(&spec, &Tensor4::zeros(4, 8, 3, 3)).unwrap_err();
        assert!(matches!(err, ConvError::WeightShape { .. }));
        assert!(err.to_string().contains("weight shape mismatch"));
    }

    #[test]
    fn error_conversions_and_display() {
        let e: ConvError = ShapeError::ZeroDim("h").into();
        assert!(e.to_string().contains("shape error"));
        let e: ConvError = MatrixError::Unsupported { m: 9, r: 3 }.into();
        assert!(e.to_string().contains("F(9,3)"));
        assert!(ConvError::Unsupported("x".into()).to_string().contains("x"));
    }
}
