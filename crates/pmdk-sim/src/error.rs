//! Error type for the PMDK-style object store.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmdkError {
    /// The pool header is missing or damaged.
    BadPool(String),
    /// Layout name mismatch between creator and opener.
    LayoutMismatch { expected: String, found: String },
    /// The heap cannot satisfy the request.
    OutOfMemory { requested: u64 },
    /// An offset does not point at a live allocation.
    BadPointer(u64),
    /// Transaction machinery failure (log overflow, nesting misuse).
    TxFailure(String),
    /// All transaction lanes are busy.
    NoFreeLanes,
    /// Injected failure from a test fail-point; the caller should now
    /// simulate a crash.
    Injected(&'static str),
    /// Key not present in a persistent container.
    NotFound,
    /// A hashtable value longer than the entry header's 32-bit length field.
    ValueTooLarge { len: u64 },
}

impl fmt::Display for PmdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmdkError::BadPool(m) => write!(f, "bad pool: {m}"),
            PmdkError::LayoutMismatch { expected, found } => {
                write!(f, "layout mismatch: expected {expected:?}, found {found:?}")
            }
            PmdkError::OutOfMemory { requested } => {
                write!(f, "persistent heap exhausted (requested {requested} bytes)")
            }
            PmdkError::BadPointer(off) => write!(f, "bad persistent pointer: {off:#x}"),
            PmdkError::TxFailure(m) => write!(f, "transaction failure: {m}"),
            PmdkError::NoFreeLanes => write!(f, "all transaction lanes are in use"),
            PmdkError::Injected(site) => write!(f, "injected failure at {site}"),
            PmdkError::NotFound => write!(f, "key not found"),
            PmdkError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds the 4 GiB entry cap")
            }
        }
    }
}

impl std::error::Error for PmdkError {}

pub type Result<T> = std::result::Result<T, PmdkError>;
