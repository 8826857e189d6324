//! # bschema-server
//!
//! A concurrent directory-service frontend that enforces
//! bounding-schemas **on the wire**: every update arriving over a
//! socket goes through the paper's §4 incremental legality check inside
//! an atomic, journaled transaction, and every search is served from an
//! immutable snapshot of a **legal** instance. The server is the
//! deployment story for the reproduction — the point where the
//! schema stops being a library invariant and becomes a service
//! guarantee no client can subvert.
//!
//! Dependency-free by construction: `std::net` TCP, `std::thread`
//! workers, and a line/length-prefixed frame codec
//! ([`codec`]) standing in for LDAP's BER layer.
//!
//! * [`codec`] — the frame format and its resource limits.
//! * [`service`] — the shared [`DirectoryService`]: snapshot reads,
//!   serialized journaled writes, stable rejection codes.
//! * [`server`] — acceptor, bounded queue, worker pool, session loop,
//!   graceful drain.
//! * `monitor` — the sampler state of a metered service: tick
//!   retention, SLO burn alerts, and what the `HEALTH`/`WATCH` verbs
//!   read.
//! * [`replica`] — crash-consistent read replicas: checkpoint
//!   bootstrap + journal shipping over the `SHIP` verb.
//! * [`client`] — the matching synchronous client.
//!
//! ```no_run
//! use std::sync::Arc;
//! use bschema_core::paper::{white_pages_instance, white_pages_schema};
//! use bschema_core::ManagedDirectory;
//! use bschema_server::{Client, DirectoryService, Server, ServerConfig};
//!
//! let (dir, _) = white_pages_instance();
//! let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
//! let service = Arc::new(DirectoryService::new(managed));
//! let handle = Server::spawn(service, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let hits = client.search(None, "sub", "(objectClass=person)", None).unwrap();
//! assert!(hits.contains("uid: laks"));
//! handle.shutdown();
//! handle.wait();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
mod monitor;
pub mod replica;
pub mod server;
pub mod service;

pub use client::{Client, ClientError, TxReceipt};
pub use codec::{Frame, WireError, WireLimits};
pub use replica::{Follower, FollowerError, SyncReport};
pub use server::{Server, ServerConfig, ServerHandle, Shutdown};
pub use service::{
    DirectoryService, ReplicationState, ServiceError, ServiceLimits, TxOutcome, SITE_SHIP_APPLY,
    SITE_SHIP_SERVE,
};
