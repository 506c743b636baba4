//! Unified error type for compilation sessions.

use pgmp_eval::EvalError;
use pgmp_expander::ExpandError;
use pgmp_profiler::ProfileStoreError;
use pgmp_reader::ReadError;
use std::fmt;

/// Any failure in a [`crate::Engine`] session.
#[derive(Debug)]
pub enum Error {
    /// The reader rejected the source text.
    Read(ReadError),
    /// Macro expansion failed.
    Expand(ExpandError),
    /// Evaluation failed.
    Eval(EvalError),
    /// Profile data could not be stored or loaded.
    Profile(ProfileStoreError),
    /// A configuration value lies outside its valid domain.
    Config(ConfigError),
}

/// A configuration field set to a value it does not accept.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigError {
    /// The field's name, e.g. `decay`.
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
    /// What the field accepts, e.g. `in [0, 1]`.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be {}, got {}",
            self.field, self.expected, self.value
        )
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Read(e) => write!(f, "{e}"),
            Error::Expand(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "evaluation error: {e}"),
            Error::Profile(e) => write!(f, "{e}"),
            Error::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Read(e) => Some(e),
            Error::Expand(e) => Some(e),
            Error::Eval(e) => Some(e),
            Error::Profile(e) => Some(e),
            Error::Config(e) => Some(e),
        }
    }
}

impl From<ReadError> for Error {
    fn from(e: ReadError) -> Error {
        Error::Read(e)
    }
}

impl From<ExpandError> for Error {
    fn from(e: ExpandError) -> Error {
        Error::Expand(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Error {
        Error::Eval(e)
    }
}

impl From<ProfileStoreError> for Error {
    fn from(e: ProfileStoreError) -> Error {
        Error::Profile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_inner_errors() {
        let e: Error = EvalError::type_error("x", &pgmp_eval::Value::Nil).into();
        assert!(e.to_string().contains("evaluation error"));
        let e: Error = ProfileStoreError::Malformed("bad".into()).into();
        assert!(e.to_string().contains("malformed"));
    }
}
