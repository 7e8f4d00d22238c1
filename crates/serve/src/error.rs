//! Typed errors of the serving runtime.

use dynasparse::DynasparseError;
use std::fmt;
use std::time::Duration;

/// Any failure of the serving layer, as distinct from the model/compile/
/// execution failures ([`DynasparseError`]) a request itself can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded request queue is full (backpressure signal of
    /// [`try_submit`](crate::ServeRuntime::try_submit)).
    QueueFull {
        /// Configured queue capacity the submission bounced off.
        capacity: usize,
    },
    /// The runtime is shutting down (or has shut down) and accepts no new
    /// requests.
    ShuttingDown,
    /// The request's deadline had already expired when a worker drained it
    /// from the queue; it was shed without executing.
    DeadlineExceeded {
        /// How far past the deadline the request was at shed time.
        late: Duration,
    },
    /// The submission was rejected by the load-shedding policy: queue depth
    /// crossed the configured high watermark and has not yet receded below
    /// the low watermark.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The high watermark that tripped (or kept) shedding.
        watermark: usize,
    },
    /// The request panicked inside the worker (it was the poisoned member
    /// of its batch); the worker caught the panic, failed only this ticket,
    /// and respawned its session.
    WorkerPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The request was accepted but never executed: the runtime abandoned
    /// it while draining (shutdown deadline ran out, or the worker pool's
    /// respawn circuit breaker opened).
    Abandoned {
        /// Why the runtime gave up on the request.
        reason: &'static str,
    },
    /// The worker serving this request disappeared without replying; its
    /// thread panicked.  The request may or may not have executed.
    WorkerLost,
    /// The request was accepted but inference failed; carries the session's
    /// typed error.
    Inference(DynasparseError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue is full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "serving runtime is shutting down"),
            ServeError::DeadlineExceeded { late } => {
                write!(
                    f,
                    "deadline exceeded: shed {:.3} ms late",
                    late.as_secs_f64() * 1e3
                )
            }
            ServeError::Overloaded { depth, watermark } => {
                write!(
                    f,
                    "load shed: queue depth {depth} at/above watermark {watermark}"
                )
            }
            ServeError::WorkerPanicked { message } => {
                write!(f, "request panicked in worker: {message}")
            }
            ServeError::Abandoned { reason } => {
                write!(f, "request abandoned without executing: {reason}")
            }
            ServeError::WorkerLost => write!(f, "worker thread terminated without replying"),
            ServeError::Inference(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Inference(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DynasparseError> for ServeError {
    fn from(e: DynasparseError) -> Self {
        ServeError::Inference(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_matrix::MatrixError;

    #[test]
    fn display_and_source() {
        assert!(ServeError::QueueFull { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(ServeError::DeadlineExceeded {
            late: Duration::from_millis(5)
        }
        .to_string()
        .contains("deadline exceeded"));
        assert!(ServeError::Overloaded {
            depth: 9,
            watermark: 8
        }
        .to_string()
        .contains("watermark 8"));
        assert!(ServeError::WorkerPanicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(ServeError::Abandoned {
            reason: "shutdown deadline"
        }
        .to_string()
        .contains("shutdown deadline"));
        let e = ServeError::Inference(
            MatrixError::BufferLength {
                expected: 1,
                actual: 2,
            }
            .into(),
        );
        assert!(e.to_string().starts_with("inference failed"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(ServeError::WorkerLost.source().is_none());
    }

    #[test]
    fn serve_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
