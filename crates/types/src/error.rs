//! Shared error type.

use std::fmt;

/// Errors surfaced by LiveNet components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A wire-format decode failed.
    Decode(String),
    /// An entity (node, stream, link, path) was looked up but does not exist.
    NotFound(String),
    /// A control-plane constraint was violated (overload, hop limit, ...).
    Constraint(String),
    /// The component is in a state that does not permit the operation.
    InvalidState(String),
    /// Capacity exhausted (queue full, cache full, no path available).
    Exhausted(String),
    /// A configuration failed validation before the run could start
    /// (zero capacities, empty topology, impossible shard layout, ...).
    InvalidConfig(String),
    /// An I/O-layer failure reported by a transport driver.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Decode(m) => write!(f, "decode error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Constraint(m) => write!(f, "constraint violated: {m}"),
            Error::InvalidState(m) => write!(f, "invalid state: {m}"),
            Error::Exhausted(m) => write!(f, "exhausted: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across all LiveNet crates.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Shorthand for a decode error.
    pub fn decode(msg: impl Into<String>) -> Self {
        Error::Decode(msg.into())
    }
    /// Shorthand for a not-found error.
    pub fn not_found(msg: impl Into<String>) -> Self {
        Error::NotFound(msg.into())
    }
    /// Shorthand for a constraint violation.
    pub fn constraint(msg: impl Into<String>) -> Self {
        Error::Constraint(msg.into())
    }
    /// Shorthand for an exhaustion error.
    pub fn exhausted(msg: impl Into<String>) -> Self {
        Error::Exhausted(msg.into())
    }
    /// Shorthand for a config-validation error.
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        Error::InvalidConfig(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        assert_eq!(
            Error::decode("bad RTP header").to_string(),
            "decode error: bad RTP header"
        );
        assert_eq!(
            Error::not_found("st42").to_string(),
            "not found: st42"
        );
        assert_eq!(
            Error::invalid_config("zero node capacity").to_string(),
            "invalid config: zero node capacity"
        );
    }
}
