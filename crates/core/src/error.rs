//! The unified typed error hierarchy of the engine.
//!
//! Every fallible public entry point — [`Planner::plan`],
//! [`ModelTemplate::instantiate`] and [`Session::infer`] — returns
//! [`DynasparseError`], which wraps the stage-specific error types:
//! [`ModelError`] for structural model validation, [`CompileError`] for
//! plan-time model/graph incompatibilities, and
//! [`MatrixError`] for functional-execution
//! failures.
//!
//! [`Planner::plan`]: crate::Planner::plan
//! [`ModelTemplate::instantiate`]: crate::ModelTemplate::instantiate
//! [`Session::infer`]: crate::Session::infer

use dynasparse_matrix::MatrixError;
use dynasparse_model::ModelError;
use std::fmt;

/// Plan-time incompatibilities between a (valid) model and a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The dataset's feature dimension does not match the model input.
    FeatureDimensionMismatch {
        /// `f⁰` the model was built for.
        model_input_dim: usize,
        /// Feature dimension of the dataset.
        feature_dim: usize,
    },
    /// The graph has no vertices, so there is nothing to partition.
    EmptyGraph,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::FeatureDimensionMismatch {
                model_input_dim,
                feature_dim,
            } => write!(
                f,
                "model expects {model_input_dim}-dimensional input features, dataset provides {feature_dim}"
            ),
            CompileError::EmptyGraph => write!(f, "dataset graph has no vertices"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Any failure of the compile-once / serve-many pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DynasparseError {
    /// The model failed structural validation (planning stage).
    Model(ModelError),
    /// The model and dataset are incompatible (planning stage).
    Compile(CompileError),
    /// A functional kernel execution failed (serving stage) — e.g. a request
    /// feature matrix whose shape does not match the compiled plan.
    Execution(MatrixError),
}

impl fmt::Display for DynasparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynasparseError::Model(e) => write!(f, "invalid model: {e}"),
            DynasparseError::Compile(e) => write!(f, "compilation failed: {e}"),
            DynasparseError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for DynasparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynasparseError::Model(e) => Some(e),
            DynasparseError::Compile(e) => Some(e),
            DynasparseError::Execution(e) => Some(e),
        }
    }
}

impl From<ModelError> for DynasparseError {
    fn from(e: ModelError) -> Self {
        DynasparseError::Model(e)
    }
}

impl From<CompileError> for DynasparseError {
    fn from(e: CompileError) -> Self {
        DynasparseError::Compile(e)
    }
}

impl From<MatrixError> for DynasparseError {
    fn from(e: MatrixError) -> Self {
        DynasparseError::Execution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DynasparseError = ModelError::NoLayers.into();
        assert!(matches!(e, DynasparseError::Model(ModelError::NoLayers)));
        assert!(e.to_string().contains("invalid model"));

        let e: DynasparseError = CompileError::EmptyGraph.into();
        assert!(e.to_string().contains("no vertices"));

        let e: DynasparseError = MatrixError::BufferLength {
            expected: 2,
            actual: 1,
        }
        .into();
        assert!(e.to_string().starts_with("execution failed"));
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error;
        let e: DynasparseError = CompileError::FeatureDimensionMismatch {
            model_input_dim: 16,
            feature_dim: 8,
        }
        .into();
        assert!(e.source().unwrap().to_string().contains("16-dimensional"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynasparseError>();
    }
}
