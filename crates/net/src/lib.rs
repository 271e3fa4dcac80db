//! # qrm-net — HTTP front end for the planning service
//!
//! Puts [`qrm_server::PlanService`] on the network: a minimal
//! HTTP/1.1 [`Server`] over `std::net::TcpListener` and a blocking
//! keep-alive [`Client`], speaking the JSON wire format of
//! [`qrm_wire`] (schemas in `docs/PROTOCOL.md`).
//!
//! ## Endpoints
//!
//! | Route | Payload |
//! |-------|---------|
//! | `POST /v1/batch`  | [`SubmitBatch`](qrm_server::SubmitBatch) → [`BatchReport`](qrm_server::BatchReport) |
//! | `GET /v1/stats`   | → [`ServiceStats`](qrm_server::ServiceStats) |
//! | `GET /v1/healthz` | → [`Health`] |
//!
//! Every non-2xx response carries a typed
//! [`ErrorReply`](qrm_wire::ErrorReply) with a stable machine-readable
//! code.
//!
//! The crate also provides a consistent-hash [`Router`] front end that
//! fans `POST /v1/batch` over a fleet of these servers (same three
//! routes, plus `GET /v1/router/stats` →
//! [`RouterStats`](qrm_wire::RouterStats)) with health-checked
//! failover — see the [`router`](Router) docs for placement, retry
//! safety, and the fifth determinism leg.
//!
//! ## Threading
//!
//! One dedicated OS thread runs a readiness event loop (over the
//! vendored [`polling`] epoll shim) that owns the listener and every
//! connection, all in non-blocking mode: each connection is an
//! explicit state machine (`KeepAliveIdle → ReadingHead → ReadingBody
//! → Planning → Writing`) advanced only when its socket is ready.
//! Complete `POST /v1/batch` requests are handed to the vendored rayon
//! worker pool as planning jobs; everything else — parsing, light
//! routes, response streaming — happens on the loop thread. A
//! connection therefore costs a pool slot only while its request is
//! actually planning: thousands of idle keep-alive connections (or
//! slowloris peers trickling bytes) consume no pool workers at all.
//! [`NetConfig::keep_alive`] bounds idle time between requests and
//! [`NetConfig::request_timeout`] bounds a started request and a
//! response drain.
//!
//! ## Determinism
//!
//! The transport adds no behaviour: a report fetched over HTTP is
//! **bit-identical** to the same submission served in-process, which
//! is in turn bit-identical to a direct `Pipeline::run` — the
//! fourth leg of the workspace's determinism contract, pinned for all
//! seven planners in `tests/net_service.rs`.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use qrm_control::pipeline::PlannerChoice;
//! use qrm_net::{Client, NetConfig, Server};
//! use qrm_server::{BatchSpec, PlanService, SubmitBatch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(
//!     PlanService::builder()
//!         .register_default("typical", PlannerChoice::Typical, 1)
//!         .build(),
//! );
//! let server = Server::bind("127.0.0.1:0", service, NetConfig::default())?;
//!
//! let mut client = Client::connect(server.addr().to_string());
//! assert_eq!(client.healthz()?.planners, vec!["typical"]);
//!
//! let report = client.submit(&SubmitBatch::new("typical", BatchSpec::new(2, 12, 7)))?;
//! assert_eq!(report.shots(), 2);
//! assert_eq!(client.stats()?.batches_served, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;

mod client;
mod router;
mod server;

pub use client::{Client, ClientError, RawResponse, RelayError};
pub use router::{Router, RouterConfig};
#[doc(hidden)]
pub use server::raw_roundtrip;
pub use server::{NetConfig, Server};

/// The `GET /v1/healthz` response payload.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Health {
    /// `"ok"` whenever the service answers at all.
    pub status: String,
    /// The registered planner names, sorted.
    pub planners: Vec<String>,
}
