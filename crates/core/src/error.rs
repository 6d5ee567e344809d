//! Error type shared across the workspace.

use std::fmt;

use crate::types::Key;

/// Errors produced by access methods and the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RumError {
    /// An insert found the key already present (for methods that reject
    /// duplicates rather than upserting).
    DuplicateKey(Key),
    /// A structure hit a hard capacity limit (e.g. a static hash table
    /// built for a fixed number of keys, or a direct-address array asked to
    /// exceed its configured key universe).
    CapacityExceeded(String),
    /// The storage substrate rejected a request (bad page id, freed page...).
    Storage(String),
    /// An internal invariant was violated; indicates a bug.
    Corrupt(String),
    /// Invalid argument (e.g. an empty or inverted range, unsorted bulk-load
    /// input).
    InvalidArgument(String),
    /// A simulated crash fired (fault injection): the device "lost power"
    /// mid-operation. Volatile state is gone; durable state keeps whatever
    /// prefix the injector let through. Recovery is expected to follow.
    Crash(String),
    /// A sealed page failed checksum verification on read: the stored CRC-32
    /// disagrees with the one computed over the bytes the device returned.
    /// Silent bit-rot surfaces as this error instead of wrong data; repair
    /// (scrub + rebuild from checkpoint/WAL) is expected to follow.
    CorruptPage {
        /// Raw id of the failing page.
        id: u64,
        /// Checksum recorded when the page was sealed.
        stored: u32,
        /// Checksum computed over the bytes actually read back.
        computed: u32,
    },
    /// A transient device fault (fault injection): the operation failed but
    /// is expected to succeed if retried — the retryable error class, as
    /// opposed to [`Crash`](Self::Crash) (terminal power loss) and
    /// [`CorruptPage`](Self::CorruptPage) (detected bit-rot).
    Transient(String),
}

impl RumError {
    /// Whether a bounded retry is a sensible response to this error.
    /// Only [`Transient`](Self::Transient) qualifies; everything else is
    /// either a caller bug or requires recovery, not repetition.
    pub fn is_transient(&self) -> bool {
        matches!(self, RumError::Transient(_))
    }
}

impl fmt::Display for RumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RumError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            RumError::CapacityExceeded(m) => write!(f, "capacity exceeded: {m}"),
            RumError::Storage(m) => write!(f, "storage error: {m}"),
            RumError::Corrupt(m) => write!(f, "corrupt structure: {m}"),
            RumError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            RumError::Crash(m) => write!(f, "simulated crash: {m}"),
            RumError::CorruptPage {
                id,
                stored,
                computed,
            } => write!(
                f,
                "corrupt page {id}: stored checksum {stored:#010x}, computed {computed:#010x}"
            ),
            RumError::Transient(m) => write!(f, "transient fault: {m}"),
        }
    }
}

impl std::error::Error for RumError {}

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, RumError>;

/// Best-effort extraction of the human-readable message from a panic
/// payload (the `Box<dyn Any>` returned by `std::thread::JoinHandle::join`
/// or `std::panic::catch_unwind`). Panics raised via `panic!("...")` carry
/// a `&str` or `String`; anything else degrades to a placeholder.
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(RumError::DuplicateKey(5).to_string(), "duplicate key 5");
        assert!(RumError::Storage("bad page".into())
            .to_string()
            .starts_with("storage error"));
        assert!(RumError::Crash("after 512 bytes".into())
            .to_string()
            .starts_with("simulated crash"));
        let c = RumError::CorruptPage {
            id: 7,
            stored: 0xDEAD_BEEF,
            computed: 0x1234_5678,
        };
        assert_eq!(
            c.to_string(),
            "corrupt page 7: stored checksum 0xdeadbeef, computed 0x12345678"
        );
        assert!(RumError::Transient("read error".into())
            .to_string()
            .starts_with("transient fault"));
    }

    #[test]
    fn only_transient_is_retryable() {
        assert!(RumError::Transient("x".into()).is_transient());
        assert!(!RumError::Crash("x".into()).is_transient());
        assert!(!RumError::CorruptPage {
            id: 0,
            stored: 0,
            computed: 1
        }
        .is_transient());
        assert!(!RumError::Storage("x".into()).is_transient());
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&RumError::Corrupt("x".into()));
    }
}
