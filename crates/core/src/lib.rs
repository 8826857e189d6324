//! # bschema-core
//!
//! Bounding-schemas for LDAP directories — a full reproduction of
//! *On Bounding-Schemas for LDAP Directories* (Amer-Yahia, Jagadish,
//! Lakshmanan & Srivastava, EDBT 2000).
//!
//! A **bounding-schema** specifies lower and upper bounds on both the
//! *content* of directory entries (required / allowed attributes and object
//! classes, Definitions 2.2–2.3) and the *structure* of the directory forest
//! (required / forbidden hierarchical relationships, Definition 2.4). This
//! crate provides the paper's three algorithm families plus a high-level
//! always-legal directory API:
//!
//! * [`schema`] — the schema model `S = (A, H, S)` with builder and text DSL;
//! * [`legality`] — Theorem 3.1 legality testing via the Figure 4 reduction
//!   to hierarchical selection queries, plus the naive quadratic baseline;
//! * [`updates`] — §4 update transactions, Theorem 4.1 subtree
//!   normalisation, and the Figure 5 incremental Δ-query checker;
//! * [`consistency`] — the §5 inference system (Figures 6–7), fixpoint
//!   closure with derivation traces, Theorem 5.2 consistency decision, and a
//!   witness-instance constructor;
//! * [`managed`] — [`ManagedDirectory`], a directory that enforces legality
//!   on every update;
//! * [`paper`] — the paper's Figures 1–3 as ready-made constructors.
//!
//! ## Quick start
//!
//! ```
//! use bschema_core::paper::{white_pages_instance, white_pages_schema};
//! use bschema_core::legality::LegalityChecker;
//! use bschema_core::consistency::ConsistencyChecker;
//!
//! let schema = white_pages_schema();
//!
//! // Is the schema satisfiable at all? (§5)
//! assert!(ConsistencyChecker::new(&schema).check().is_consistent());
//!
//! // Is the Figure 1 instance legal? (§3)
//! let (dir, _) = white_pages_instance();
//! let report = LegalityChecker::new(&schema).check(&dir);
//! assert!(report.is_legal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod consistency;
pub mod discover;
pub mod engine;
pub mod evolution;
pub mod journal;
pub mod legality;
pub mod managed;
pub mod paper;
pub mod qopt;
pub mod schema;
pub mod sharded;
pub mod updates;

pub use checkpoint::{
    recover_with_checkpoint, Checkpoint, CheckpointError, CheckpointRecovery, RecoveryPlan,
};
pub use consistency::ConsistencyChecker;
pub use discover::{suggest_schema, DiscoveryOptions};
pub use engine::{JournalSink, JournaledDirectory, Op};
pub use evolution::{evolve, Evolution, EvolutionError};
pub use journal::{Journal, JournalModify, JournalTx, JournalWriter, RecoveryReport};
pub use legality::{LegalityChecker, LegalityReport, Violation};
pub use managed::ManagedDirectory;
pub use qopt::SchemaAwareOptimizer;
pub use schema::{DirectorySchema, ForbidKind, RelKind, SchemaBuilder, SchemaError};
pub use sharded::{ShardedDirectory, ShardedError, ShardedTxOutcome};
pub use updates::{Transaction, TxOp};
