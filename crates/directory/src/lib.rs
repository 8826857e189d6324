//! # bschema-directory
//!
//! The LDAP directory data-model substrate for the bounding-schemas
//! reproduction (*On Bounding-Schemas for LDAP Directories*, Amer-Yahia,
//! Jagadish, Lakshmanan & Srivastava, EDBT 2000).
//!
//! This crate implements §2.1 of the paper — the directory instance
//! `D = (R, class, val, N)` — together with the LDAP machinery the paper
//! assumes from its references: typed attribute values (RFC 2252 syntaxes),
//! the single attribute namespace, distinguished names (RFC 2253), and LDIF
//! interchange (RFC 2849).
//!
//! ## Layout
//!
//! * [`syntax`] / [`attribute`] — the type system `T`, `dom(t)`, and the
//!   typing function `τ : A → T` (an [`AttributeRegistry`]).
//! * [`entry`] — `val(r)` and `class(r)` per entry, with Definition 2.1(3b)'s
//!   objectClass invariant enforced structurally.
//! * [`forest`] — the relation `N` as an arena forest with gap-labelled
//!   preorder interval numbering, maintained across insertions and
//!   removals (the "sorted entries" the §3.2 query evaluation relies on).
//! * [`instance`] — the assembled [`DirectoryInstance`] with secondary
//!   indexes ([`index`]) that a write posts its |ΔD| entries to; its side
//!   tables are chunked copy-on-write vectors (`cow`) and its index lists
//!   sit behind `Arc`s, so clones share what they do not write.
//! * [`dn`] / [`ldif`] — naming and interchange.
//!
//! ## Quick start
//!
//! ```
//! use bschema_directory::{DirectoryInstance, Entry, Rdn};
//!
//! let mut dir = DirectoryInstance::white_pages();
//! let org = dir.add_named_root(
//!     Rdn::single("o", "att"),
//!     Entry::builder().class("organization").class("top").attr("o", "att").build(),
//! ).unwrap();
//! dir.add_named_child(
//!     org,
//!     Rdn::single("uid", "laks"),
//!     Entry::builder().class("person").class("top").attr("uid", "laks").build(),
//! ).unwrap();
//!
//! dir.prepare();
//! assert_eq!(dir.index().entries_with_class("person").len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
mod cow;
pub mod dn;
pub mod entry;
pub mod forest;
pub mod index;
pub mod instance;
pub mod ldif;
pub mod oid;
pub mod syntax;

pub use attribute::{AttributeDef, AttributeRegistry, OBJECT_CLASS};
pub use dn::{Dn, Rdn};
pub use entry::{Entry, EntryBuilder};
pub use forest::{EntryId, Forest, ForestError};
pub use index::InstanceIndex;
pub use instance::{DirectoryInstance, InstanceError, Prepared, SlotRow};
pub use oid::Oid;
pub use syntax::Syntax;
