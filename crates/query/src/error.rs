//! Query errors.

use std::fmt;

/// Errors across the query pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte position in the input.
        position: usize,
        /// Description.
        message: String,
    },
    /// Parse error at the offending token.
    Parse {
        /// Byte offset of the offending token in the input, or the input's
        /// length when the statement ends too early.
        position: usize,
        /// Description.
        message: String,
    },
    /// Semantic error (unknown variable, bad path, type mismatch, …).
    Analysis(String),
    /// Execution-time error (storage/locking) carried as text to keep the
    /// crate decoupled; the executor also returns the structured error.
    Execution(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { position, message } => write!(f, "lex error @{position}: {message}"),
            QueryError::Parse { position, message } => {
                write!(f, "parse error @{position}: {message}")
            }
            QueryError::Analysis(m) => write!(f, "analysis error: {m}"),
            QueryError::Execution(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(QueryError::Analysis("x".into()).to_string().contains("analysis"));
        assert!(QueryError::Lex { position: 3, message: "bad".into() }
            .to_string()
            .contains("@3"));
        assert_eq!(
            QueryError::Parse { position: 43, message: "expected literal, found `FOR`".into() }
                .to_string(),
            "parse error @43: expected literal, found `FOR`"
        );
    }
}
