//! The serving layer's error taxonomy.

/// Errors surfaced by the [`Scheduler`](crate::Scheduler).
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the query: the wait queue is full.
    Overloaded {
        /// Queries already waiting for an execution slot.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// Arrivals — queries and, on a live server, mutations — must be
    /// offered in non-decreasing time order: the scheduler replays a
    /// trace, it is not an online reordering buffer.
    NonMonotoneArrival {
        /// Time of the previously offered arrival, in virtual seconds.
        prev_secs: f64,
        /// The offending (earlier) arrival time, in virtual seconds.
        next_secs: f64,
    },
    /// The underlying chunk store failed.
    Storage(eff2_storage::Error),
}

/// Serving-layer result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: {queued} queries already queued (capacity {capacity})"
            ),
            ServeError::NonMonotoneArrival {
                prev_secs,
                next_secs,
            } => write!(
                f,
                "arrivals must be non-decreasing: {next_secs}s submitted after {prev_secs}s"
            ),
            ServeError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<eff2_storage::Error> for ServeError {
    fn from(e: eff2_storage::Error) -> Self {
        ServeError::Storage(e)
    }
}
