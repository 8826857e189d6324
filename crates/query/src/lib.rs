//! # bschema-query
//!
//! The hierarchical query-engine substrate for the bounding-schemas
//! reproduction: a from-scratch implementation of the directory query
//! algebra of Jagadish, Lakshmanan, Milo, Srivastava & Vista ("Querying
//! network directories", SIGMOD '99 — reference \[9\] of the paper), which §3.2
//! reduces structure-schema legality to.
//!
//! * [`filter`] — LDAP boolean filters (RFC 2254), syntax-aware matching.
//! * [`filter_parser`] — the RFC 2254 string syntax.
//! * [`algebra`] — hierarchical selection queries: `σc`, `σp`, `σd`, `σa`,
//!   `σ?`, plus union/intersection, with the Figure 5 per-leaf dataset
//!   [`Binding`]s used by incremental legality checking.
//! * [`eval`] — the interval-merge evaluator ([`evaluate`], O(|Q|·|D|)),
//!   the naive nested-loop oracle ([`evaluate_naive`], O(|Q|·|D|²)), and
//!   the plan-recording [`explain`] evaluator (EXPLAIN for Figure 4
//!   queries: access paths, candidate sizes, scanned vs. matched).
//! * [`result`] — preorder-sorted result lists and their merge ops.
//!
//! ## Example: the paper's Q1
//!
//! ```
//! use bschema_directory::{DirectoryInstance, Entry};
//! use bschema_query::{EvalContext, Query, evaluate};
//!
//! let mut dir = DirectoryInstance::white_pages();
//! let org = dir.add_root_entry(
//!     Entry::builder().classes(["organization", "orgGroup", "top"]).build(),
//! );
//! dir.add_child_entry(org, Entry::builder().classes(["person", "top"]).build()).unwrap();
//! dir.prepare();
//!
//! // Q1: orgGroups with NO person descendant — empty iff the
//! // orgGroup ⇒⇒ person requirement holds.
//! let q1 = Query::object_class("orgGroup").minus(
//!     Query::object_class("orgGroup").with_descendant(Query::object_class("person")),
//! );
//! assert!(evaluate(&EvalContext::new(&dir), &q1).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod eval;
pub mod filter;
pub mod filter_parser;
pub mod optimize;
pub mod result;
pub mod search;

pub use algebra::{Binding, Query};
pub use eval::{evaluate, evaluate_naive, explain, EvalContext, Explain, ExplainNode};
pub use filter::Filter;
pub use filter_parser::{
    parse_filter, parse_filter_limited, FilterParseError, DEFAULT_FILTER_DEPTH,
};
pub use optimize::{simplify, simplify_filter};
pub use search::{search, search_dn, SearchRequest, SearchScope};
