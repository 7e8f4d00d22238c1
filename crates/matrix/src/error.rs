//! Error type shared by all matrix operations.

use std::fmt;

/// Result alias used throughout the matrix crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// Errors produced by matrix construction and matrix arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// Row index requested.
        row: usize,
        /// Column index requested.
        col: usize,
        /// Number of rows in the matrix.
        rows: usize,
        /// Number of columns in the matrix.
        cols: usize,
    },
    /// The raw buffer handed to a constructor has the wrong length.
    BufferLength {
        /// Expected number of elements.
        expected: usize,
        /// Actual number of elements provided.
        actual: usize,
    },
    /// A sparse matrix constructor received entries that are not valid for
    /// the declared dimensions (e.g. an entry beyond the last row).
    InvalidEntry {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// Declared matrix shape.
        shape: (usize, usize),
    },
    /// A partition specification does not tile the matrix it was applied to.
    InvalidPartition {
        /// Description of the inconsistency.
        reason: String,
    },
    /// An operand holds a `NaN` or `±Inf`, which the zero-skipping kernels
    /// cannot carry the way the dense oracle does.
    NonFinite {
        /// Human-readable description of the operation that refused it.
        op: &'static str,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for a {rows}x{cols} matrix"
            ),
            MatrixError::BufferLength { expected, actual } => write!(
                f,
                "buffer length mismatch: expected {expected} elements, got {actual}"
            ),
            MatrixError::InvalidEntry { row, col, shape } => write!(
                f,
                "sparse entry ({row}, {col}) outside declared shape {}x{}",
                shape.0, shape.1
            ),
            MatrixError::InvalidPartition { reason } => {
                write!(f, "invalid partition: {reason}")
            }
            MatrixError::NonFinite { op } => {
                write!(f, "non-finite value (NaN or Inf) in {op}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MatrixError::ShapeMismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));

        let e = MatrixError::IndexOutOfBounds {
            row: 7,
            col: 9,
            rows: 4,
            cols: 4,
        };
        assert!(e.to_string().contains("(7, 9)"));

        let e = MatrixError::BufferLength {
            expected: 12,
            actual: 10,
        };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("10"));

        let e = MatrixError::InvalidEntry {
            row: 5,
            col: 6,
            shape: (2, 2),
        };
        assert!(e.to_string().contains("2x2"));

        let e = MatrixError::InvalidPartition {
            reason: "N1 must divide |V|".into(),
        };
        assert!(e.to_string().contains("N1"));

        let e = MatrixError::NonFinite {
            op: "session infer",
        };
        assert!(e.to_string().contains("session infer"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MatrixError>();
    }
}
