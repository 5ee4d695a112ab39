//! The unified embedder error.
//!
//! One `cage::Error` spans the whole pipeline — frontend, lowering,
//! validation, instantiation, execution traps, and typed-call signature
//! checking — so embedders never convert between per-stage error types
//! (`CompileError`, `LowerError`, `InstantiateError`, bare `Trap`).

use std::fmt;

use cage_engine::store::InstantiateError;
use cage_engine::Trap;
use cage_wasm::LimitError;

/// Any failure an embedder can see, from C source to guest trap.
#[derive(Debug)]
pub enum Error {
    /// Frontend (parse/typecheck) failure.
    Compile(cage_cc::CompileError),
    /// A [`cage_wasm::CompileLimits`] bound was exceeded while ingesting
    /// the program — any stage (frontend, passes, lowering, validation,
    /// the register lowering) can report it. The input was too big or too
    /// deep, not malformed.
    LimitExceeded(LimitError),
    /// A compile stage panicked on this input. The panic was caught at
    /// the [`crate::Engine::compile`] boundary (the process is fine) and
    /// counted in [`crate::compile_panic_count`]; the input is rejected.
    /// Any occurrence is a toolchain bug worth reporting — the pipeline
    /// is supposed to return structured errors on all inputs.
    CompilePanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// IR → wasm lowering failure.
    Lower(cage_ir::LowerError),
    /// The produced module failed validation (a toolchain bug if it ever
    /// happens — surfaced rather than panicking).
    Validate(cage_wasm::ValidationError),
    /// Instantiation failure (unresolved imports, the §6.4 15-sandbox MTE
    /// tag budget, trapping start functions).
    Instantiate(InstantiateError),
    /// The guest trapped during execution — including Cage's
    /// memory-safety violations.
    Trap(Trap),
    /// A requested export does not exist.
    MissingExport {
        /// The export name looked up.
        name: String,
    },
    /// A requested export exists but is not a function.
    NotAFunction {
        /// The export name looked up.
        name: String,
    },
    /// A typed function handle was requested with the wrong Rust
    /// signature.
    SignatureMismatch {
        /// The export name looked up.
        name: String,
        /// The signature the caller's Rust types imply.
        requested: String,
        /// The signature the module actually exports.
        actual: String,
    },
    /// An artifact compiled for one Table 3 variant was instantiated on an
    /// engine configured for another — the hardening instructions in the
    /// module would not match the execution config enforcing them.
    VariantMismatch {
        /// The variant the artifact was compiled for.
        artifact: String,
        /// The variant the engine is configured for.
        engine: String,
    },
}

impl Error {
    /// The underlying trap, when execution (rather than building or
    /// linking) failed.
    #[must_use]
    pub fn as_trap(&self) -> Option<&Trap> {
        match self {
            Error::Trap(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this is one of Cage's memory-safety trap classes (tag-check
    /// or pointer-authentication faults) — the Table 2 "mitigated" signal.
    #[must_use]
    pub fn is_memory_safety_violation(&self) -> bool {
        self.as_trap().is_some_and(Trap::is_memory_safety_violation)
    }

    /// The compile limit that was exceeded, when this error is a
    /// resource-bound rejection rather than a malformed-input one —
    /// how `cagec` picks its "too big" exit code.
    #[must_use]
    pub fn limit(&self) -> Option<&LimitError> {
        match self {
            Error::LimitExceeded(l) => Some(l),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::LimitExceeded(l) => write!(f, "{l}"),
            Error::CompilePanic { message } => {
                write!(f, "internal compiler panic (caught): {message}")
            }
            Error::Lower(e) => write!(f, "lowering error: {e}"),
            Error::Validate(e) => write!(f, "validation error: {e}"),
            Error::Instantiate(e) => write!(f, "instantiation error: {e}"),
            Error::Trap(t) => write!(f, "trap: {t}"),
            Error::MissingExport { name } => write!(f, "no export named \"{name}\""),
            Error::NotAFunction { name } => {
                write!(f, "export \"{name}\" is not a function")
            }
            Error::SignatureMismatch {
                name,
                requested,
                actual,
            } => write!(
                f,
                "typed call signature mismatch for \"{name}\": requested {requested}, \
                 module exports {actual}"
            ),
            Error::VariantMismatch { artifact, engine } => write!(
                f,
                "artifact compiled for variant \"{artifact}\" cannot be instantiated on \
                 an engine configured for \"{engine}\""
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::LimitExceeded(e) => Some(e),
            Error::Lower(e) => Some(e),
            Error::Validate(e) => Some(e),
            Error::Instantiate(e) => Some(e),
            Error::Trap(t) => Some(t),
            _ => None,
        }
    }
}

// The `From` conversions below pull a carried `LimitError` out of each
// stage's own error type, so every stage's resource-bound rejection
// surfaces uniformly as `Error::LimitExceeded` — the embedder never has
// to know which stage noticed first.

impl From<LimitError> for Error {
    fn from(l: LimitError) -> Self {
        Error::LimitExceeded(l)
    }
}

impl From<cage_cc::CompileError> for Error {
    fn from(e: cage_cc::CompileError) -> Self {
        match e.limit() {
            Some(l) => Error::LimitExceeded(l.clone()),
            None => Error::Compile(e),
        }
    }
}

impl From<cage_ir::LowerError> for Error {
    fn from(e: cage_ir::LowerError) -> Self {
        match e {
            cage_ir::LowerError::Limit(l) => Error::LimitExceeded(l),
            other => Error::Lower(other),
        }
    }
}

impl From<cage_wasm::ValidationError> for Error {
    fn from(e: cage_wasm::ValidationError) -> Self {
        match e.limit() {
            Some(l) => Error::LimitExceeded(l.clone()),
            None => Error::Validate(e),
        }
    }
}

impl From<InstantiateError> for Error {
    fn from(e: InstantiateError) -> Self {
        match e {
            InstantiateError::CompileLimit(l) => Error::LimitExceeded(l),
            other => Error::Instantiate(other),
        }
    }
}

impl From<Trap> for Error {
    fn from(t: Trap) -> Self {
        Error::Trap(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_classification_flows_through() {
        let err = Error::Trap(Trap::Unreachable);
        assert!(err.as_trap().is_some());
        assert!(!err.is_memory_safety_violation());
        let missing = Error::MissingExport { name: "f".into() };
        assert!(missing.as_trap().is_none());
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error as _;
        let err = Error::Trap(Trap::DivideByZero);
        assert!(err.source().is_some());
        let mismatch = Error::SignatureMismatch {
            name: "f".into(),
            requested: "(i64) -> i64".into(),
            actual: "(f64) -> f64".into(),
        };
        assert!(mismatch.source().is_none());
        let text = mismatch.to_string();
        assert!(text.contains("requested (i64) -> i64"));
        assert!(text.contains("module exports (f64) -> f64"));
    }
}
