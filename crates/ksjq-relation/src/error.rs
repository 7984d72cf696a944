//! Error handling for the relational substrate.

use std::fmt;

/// Convenience alias used across the `ksjq-*` crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building or validating relations and schemas.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A tuple was supplied with the wrong number of attributes.
    ArityMismatch {
        /// Attributes the schema expects.
        expected: usize,
        /// Attributes the tuple provided.
        got: usize,
    },
    /// A schema was declared without any skyline attributes.
    EmptySchema,
    /// An attribute value was NaN, which has no place in a total order.
    NonFiniteValue {
        /// Index of the offending attribute.
        attr: usize,
        /// Row index of the offending tuple.
        row: usize,
    },
    /// Aggregate slots must be contiguous `0..a` and unique within a schema.
    InvalidAggSlot(String),
    /// The relation mixes join-key kinds (e.g. some tuples have group keys
    /// and others numeric keys).
    InconsistentJoinKeys,
    /// A catalog registration reused an already-registered relation name.
    DuplicateRelation(String),
    /// A catalog registration used an empty (or all-whitespace) name.
    InvalidRelationName(String),
    /// Malformed CSV input.
    Csv(String),
    /// Anything else worth reporting with context.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity mismatch: schema has {expected} attributes, tuple has {got}"
                )
            }
            Error::EmptySchema => write!(f, "schema declares no skyline attributes"),
            Error::NonFiniteValue { attr, row } => {
                write!(
                    f,
                    "non-finite attribute value at row {row}, attribute {attr}"
                )
            }
            Error::InvalidAggSlot(msg) => write!(f, "invalid aggregate slot: {msg}"),
            Error::InconsistentJoinKeys => {
                write!(f, "tuples mix join-key kinds within one relation")
            }
            Error::DuplicateRelation(name) => {
                write!(f, "relation name {name:?} is already registered")
            }
            Error::InvalidRelationName(name) => {
                write!(f, "invalid relation name {name:?}: must be non-empty")
            }
            Error::Csv(msg) => write!(f, "csv: {msg}"),
            Error::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("arity"));
        assert!(Error::EmptySchema.to_string().contains("schema"));
        assert!(Error::Csv("bad line".into())
            .to_string()
            .contains("bad line"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<Error>();
    }
}
