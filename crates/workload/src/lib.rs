//! # bschema-workload
//!
//! Synthetic workload generators for the bounding-schemas reproduction.
//! The paper (EDBT 2000) reports no datasets, so the benchmarks use
//! organisation-shaped directories, randomized schemas, and randomized
//! update transactions generated here — all seeded for reproducibility.
//!
//! * [`org`] — corporate white-pages directories of any size, conforming to
//!   the paper's Figures 2–3 schema, with optional injected violations;
//! * [`schema_gen`] — random bounding-schemas: a consistent family, an
//!   inconsistent family (planted cycles/contradictions), and an
//!   unconstrained family for consistency-checker benchmarking;
//! * [`tx_gen`] — random legality-preserving and violating update
//!   transactions over generated directories;
//! * [`chaos`] — the fault-injection differential driver: replays a
//!   scripted workload under every injectable fault and asserts the
//!   crash-consistency invariants of
//!   [`ManagedDirectory`](bschema_core::managed::ManagedDirectory);
//! * [`oracle`] — the scoped deletion check (Figure 5′) held against the
//!   paper's whole-instance recheck, for those drivers to run per commit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod ldif_workload;
pub mod oracle;
pub mod org;
pub mod schema_gen;
pub mod tx_gen;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use ldif_workload::{
    multi_org_base, spans_multiple_subtrees, GeneratedTx, LdifWorkload, LdifWorkloadParams,
};
pub use org::{OrgGenerator, OrgParams};
pub use schema_gen::{SchemaGenerator, SchemaParams};
pub use tx_gen::{TxGenerator, TxParams};
