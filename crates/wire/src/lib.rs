//! # qrm-wire — JSON wire codec for the planning service
//!
//! The serialization layer between [`qrm_server`]'s typed
//! request/response surface and any network transport (the workspace's
//! HTTP front end lives in `qrm-net`). It is **dependency-free**: the
//! [`json`] module implements a JSON writer and a strict
//! recursive-descent reader with depth/size limits from scratch, as the
//! vendored serde subset's streaming `Sink` and `Source`. Encoding runs
//! a type's derived code straight into one output buffer, and decoding
//! runs it straight over the text: no [`Value`](serde::Value) tree is
//! built in between, and a field the type does not know is checked and
//! skipped without building anything.
//!
//! Every type that crosses the wire — [`PlannerChoice`],
//! [`BatchSpec`], [`SubmitBatch`], [`BatchReport`], [`ServiceStats`],
//! and the transport-level [`ErrorReply`] and [`RouterStats`] —
//! implements [`ToJson`] /
//! [`FromJson`] (blanket impls over the derived `serde` traits), so
//! encoding is one method call and decoding returns typed errors,
//! never panics. A syntax error anywhere in the text wins over a schema
//! error ([`WireError::Json`] before [`WireError::Decode`]), and among
//! schema errors the first failing field in declaration order is the
//! one reported, whatever order the keys were written in. The exact
//! schemas are documented field-by-field in `docs/PROTOCOL.md`.
//!
//! ## Determinism
//!
//! The codec is part of the workspace's bit-identity contract: floats
//! are written with shortest round-trip formatting and re-parsed
//! exactly, map keys keep declaration order, and encoding the same
//! value twice yields byte-identical text. A [`BatchReport`] that
//! travels server → JSON → client compares equal to the in-process
//! original (`tests/net_service.rs` pins this end to end over HTTP).
//!
//! ## Example
//!
//! ```
//! use qrm_server::{BatchSpec, SubmitBatch};
//! use qrm_wire::{FromJson, ToJson};
//!
//! let request = SubmitBatch::new("qrm", BatchSpec::new(4, 16, 7));
//! let text = request.to_json();
//! assert!(text.starts_with("{\"planner\":\"qrm\""));
//!
//! let back = SubmitBatch::from_json(&text).expect("round-trip");
//! assert_eq!(back, request);
//!
//! // Malformed input is a typed error, not a panic.
//! assert!(SubmitBatch::from_json("{\"planner\":3}").is_err());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;

use std::fmt;

// Re-exported so downstream crates (and doctests) can name every wire
// type through this crate alone.
pub use qrm_control::pipeline::PlannerChoice;
pub use qrm_server::{BatchReport, BatchSpec, ServiceStats, SubmitBatch};

pub use json::{JsonError, JsonErrorKind, JsonLimits};

/// Why a typed decode failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The text is not valid JSON (or exceeds the parser limits).
    Json(JsonError),
    /// The JSON is well-formed but does not match the target type's
    /// schema.
    Decode(serde::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(err) => write!(f, "invalid JSON: {err}"),
            WireError::Decode(err) => write!(f, "schema mismatch: {err}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Json(err) => Some(err),
            WireError::Decode(err) => Some(err),
        }
    }
}

impl From<JsonError> for WireError {
    fn from(err: JsonError) -> Self {
        WireError::Json(err)
    }
}

impl From<serde::Error> for WireError {
    fn from(err: serde::Error) -> Self {
        WireError::Decode(err)
    }
}

/// Encoding to JSON text. Blanket-implemented for every
/// [`serde::Serialize`] type, so the service types (and yours) get it
/// from their derive.
pub trait ToJson {
    /// The value tree this type serializes to.
    fn to_json_value(&self) -> serde::Value;

    /// Compact JSON text (no whitespace); deterministic — equal values
    /// encode to byte-identical text.
    fn to_json(&self) -> String;
}

impl<T: serde::Serialize + ?Sized> ToJson for T {
    fn to_json_value(&self) -> serde::Value {
        self.serialize()
    }

    fn to_json(&self) -> String {
        json::encode(self)
    }
}

/// Decoding from JSON text. Blanket-implemented for every
/// [`serde::Deserialize`] type.
pub trait FromJson: Sized {
    /// Decodes from an already-parsed value tree.
    ///
    /// # Errors
    ///
    /// [`WireError::Decode`] when the tree does not match the schema.
    fn from_json_value(value: &serde::Value) -> Result<Self, WireError>;

    /// Parses and decodes with the default [`JsonLimits`].
    ///
    /// # Errors
    ///
    /// [`WireError::Json`] for malformed text, [`WireError::Decode`]
    /// for schema mismatches.
    fn from_json(text: &str) -> Result<Self, WireError> {
        Self::from_json_with_limits(text, &JsonLimits::default())
    }

    /// Parses and decodes under explicit limits (servers cap attacker-
    /// controlled input tighter than the defaults). The text is read
    /// once, straight into `Self`.
    ///
    /// # Errors
    ///
    /// As [`from_json`](Self::from_json).
    fn from_json_with_limits(text: &str, limits: &JsonLimits) -> Result<Self, WireError>;
}

impl<T: serde::Deserialize> FromJson for T {
    fn from_json_value(value: &serde::Value) -> Result<Self, WireError> {
        Ok(T::deserialize(value)?)
    }

    fn from_json_with_limits(text: &str, limits: &JsonLimits) -> Result<Self, WireError> {
        Ok(json::decode(text, limits)??)
    }
}

/// The typed error payload every non-2xx response of the HTTP front
/// end carries (`docs/PROTOCOL.md` lists the codes).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ErrorReply {
    /// Stable machine-readable code (`"unknown_planner"`,
    /// `"bad_json"`, …). Codes never change meaning; new failure modes
    /// add new codes.
    pub code: String,
    /// Human-readable description of this particular failure.
    pub error: String,
}

impl ErrorReply {
    /// Creates a reply.
    pub fn new(code: impl Into<String>, error: impl Into<String>) -> Self {
        ErrorReply {
            code: code.into(),
            error: error.into(),
        }
    }
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.error, self.code)
    }
}

/// One backend's slice of a [`RouterStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BackendRouteStats {
    /// The backend's address, as configured on the router.
    pub addr: String,
    /// Last health-probe verdict (`GET /v1/healthz` answered 2xx).
    pub healthy: bool,
    /// Requests this backend answered (any HTTP status).
    pub routed: u64,
    /// Relay attempts that failed *provably unaccepted* and moved on to
    /// the next ring node.
    pub failed_over: u64,
}

/// Snapshot of the consistent-hash router front end, served at
/// `GET /v1/router/stats` (`docs/PROTOCOL.md` documents the schema and
/// the routing semantics it observes).
///
/// `relayed + no_backend <= requests` (the difference is requests
/// rejected before ring selection, e.g. malformed bodies), and
/// `relayed == Σ backends.routed`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RouterStats {
    /// `POST /v1/batch` requests the router accepted for routing.
    pub requests: u64,
    /// Requests a backend answered (the answer was relayed verbatim,
    /// whatever its status).
    pub relayed: u64,
    /// Failovers: relay attempts abandoned on a *provably unaccepted*
    /// failure, summed over all backends.
    pub failovers: u64,
    /// Requests every ring candidate refused — answered `503
    /// no_backend` locally.
    pub no_backend: u64,
    /// Per-backend breakdown, in ring-declaration order.
    pub backends: Vec<BackendRouteStats>,
}
