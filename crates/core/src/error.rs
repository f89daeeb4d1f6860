//! The typed error surface of the public pipeline API.
//!
//! Every fallible entry point — [`crate::AnalysisBuilder`],
//! [`crate::Analysis::update_incremental`], the CLI — returns
//! [`PinpointError`] instead of a boxed trait object, so callers can
//! match on the failure stage programmatically.

use pinpoint_ir::VerifyError;
use std::fmt;

/// An error from the analysis pipeline, tagged by the stage it arose in.
#[derive(Debug)]
pub enum PinpointError {
    /// The source text did not parse.
    Parse(pinpoint_ir::parser::ParseError),
    /// The parsed program could not be lowered to the SSA IR.
    Lower(pinpoint_ir::lower::LowerError),
    /// The lowered module failed IR well-formedness verification.
    Verify(Vec<VerifyError>),
    /// A solver or search budget in the builder configuration is
    /// unusable (for example a zero vertex budget, which would make
    /// every search return nothing).
    SolverBudget(String),
}

impl fmt::Display for PinpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinpointError::Parse(e) => write!(f, "parse error: {e}"),
            PinpointError::Lower(e) => write!(f, "lowering error: {e}"),
            PinpointError::Verify(errs) => {
                write!(f, "IR verification failed ({} error(s))", errs.len())?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            PinpointError::SolverBudget(msg) => write!(f, "invalid solver budget: {msg}"),
        }
    }
}

impl std::error::Error for PinpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PinpointError::Parse(e) => Some(e),
            PinpointError::Lower(e) => Some(e),
            PinpointError::Verify(errs) => errs.first().map(|e| e as _),
            PinpointError::SolverBudget(_) => None,
        }
    }
}

impl From<pinpoint_ir::parser::ParseError> for PinpointError {
    fn from(e: pinpoint_ir::parser::ParseError) -> Self {
        PinpointError::Parse(e)
    }
}

impl From<pinpoint_ir::lower::LowerError> for PinpointError {
    fn from(e: pinpoint_ir::lower::LowerError) -> Self {
        PinpointError::Lower(e)
    }
}

impl From<pinpoint_ir::CompileError> for PinpointError {
    fn from(e: pinpoint_ir::CompileError) -> Self {
        match e {
            pinpoint_ir::CompileError::Parse(e) => PinpointError::Parse(e),
            pinpoint_ir::CompileError::Lower(e) => PinpointError::Lower(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_are_typed() {
        let err = crate::Analysis::from_source("fn oops {").unwrap_err();
        assert!(matches!(err, PinpointError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error(_: &dyn std::error::Error) {}
        let err = PinpointError::SolverBudget("zero budget".into());
        takes_error(&err);
        assert!(err.to_string().contains("zero budget"));
    }
}
