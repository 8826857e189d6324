//! Update transactions and their Theorem 4.1 normalisation.
//!
//! §4.1: a transaction is "a sequence of distinct directory entry insertions
//! and deletions", constrained by the LDAP update discipline (new entries
//! under existing parents or as roots; only leaves deletable). Checking
//! legality per single operation is not robust — a violation introduced by
//! one operation may be repaired by a later one — so Theorem 4.1 abstracts a
//! transaction as **inserting a set of subtrees and deleting a set of
//! subtrees**, no two subtree roots forming an (ancestor, descendant) pair:
//! the final instance is legal iff each instance along the
//! insert-subtrees-then-delete-subtrees sequence is legal.
//!
//! [`Transaction::normalize`] computes that canonical form.

use std::collections::HashSet;
use std::fmt;

use bschema_directory::{DirectoryInstance, Entry, EntryId, InstanceError, Rdn};

/// Reference to a parent: an entry that already exists, or one created by an
/// earlier insert op of the same transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// A pre-existing entry.
    Existing(EntryId),
    /// The entry created by op `i` of this transaction.
    New(usize),
}

/// One operation of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOp {
    /// Insert `entry` under `parent` (`None` = new forest root).
    Insert {
        /// Where the new entry goes.
        parent: Option<NodeRef>,
        /// The new entry's name among its siblings. `None` inserts an
        /// anonymous entry (library-internal use); named inserts are
        /// required for the entry to be addressable by DN afterwards.
        rdn: Option<Rdn>,
        /// The new entry's content.
        entry: Entry,
    },
    /// Delete the (existing) entry `target`.
    Delete {
        /// The entry to delete.
        target: EntryId,
    },
}

/// A sequence of entry-level insertions and deletions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transaction {
    ops: Vec<TxOp>,
}

/// Errors detected during normalisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// An insert referenced op `i`, which is not an earlier insert op.
    BadNewRef {
        /// The referencing op.
        op: usize,
        /// The bogus referenced index.
        referenced: usize,
    },
    /// An insert's existing parent is not a live entry.
    InsertUnderMissing {
        /// The referencing op.
        op: usize,
        /// The missing parent.
        parent: EntryId,
    },
    /// An insert targets a parent that this transaction also deletes.
    InsertUnderDeleted {
        /// The referencing op.
        op: usize,
        /// The doomed parent.
        parent: EntryId,
    },
    /// A delete targets an entry that does not exist.
    DeleteMissing(EntryId),
    /// The same entry is deleted twice.
    DuplicateDelete(EntryId),
    /// A deleted entry has a child that is not also deleted — the LDAP
    /// leaf-only discipline makes such a sequence unrealisable.
    DeleteLeavesOrphan {
        /// The deleted entry.
        deleted: EntryId,
        /// Its surviving child.
        survivor: EntryId,
    },
    /// A named insert's RDN collides with a sibling under the same
    /// parent — either a pre-existing entry or one created earlier in
    /// the same transaction.
    DuplicateRdn {
        /// The subtree-local node index of the colliding insert.
        node: usize,
        /// The colliding RDN, rendered for display.
        rdn: String,
    },
    /// An LDIF change record could not be decoded against the current
    /// instance (an unknown delete target, an unresolvable parent, an
    /// empty DN).
    Ldif {
        /// 1-based source line of the offending record.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// An invariant the normalisation established failed to hold while
    /// the transaction was applied — an engine bug surfaced as a typed
    /// error instead of a panic, so callers can roll back.
    Internal(String),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::BadNewRef { op, referenced } => {
                write!(f, "op {op}: references op {referenced}, which is not an earlier insert")
            }
            TxError::InsertUnderMissing { op, parent } => {
                write!(f, "op {op}: parent {parent} does not exist")
            }
            TxError::InsertUnderDeleted { op, parent } => {
                write!(f, "op {op}: parent {parent} is deleted by the same transaction")
            }
            TxError::DeleteMissing(id) => write!(f, "delete of non-existent entry {id}"),
            TxError::DuplicateDelete(id) => write!(f, "entry {id} deleted twice"),
            TxError::DeleteLeavesOrphan { deleted, survivor } => write!(
                f,
                "entry {deleted} is deleted but its child {survivor} is not (LDAP permits leaf deletion only)"
            ),
            TxError::DuplicateRdn { node, rdn } => {
                write!(f, "insert node {node}: an entry named {rdn} already exists under that parent")
            }
            TxError::Ldif { line, reason } => write!(f, "line {line}: {reason}"),
            TxError::Internal(detail) => write!(f, "internal engine error: {detail}"),
        }
    }
}

impl std::error::Error for TxError {}

/// One subtree to insert: `nodes[0]` is the subtree root; each node names
/// its parent as an index into `nodes` (`None` only for the root).
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeInsertion {
    /// The existing entry the subtree hangs under (`None` = forest root).
    pub parent: Option<EntryId>,
    /// Preorder node list: `(local_parent_index, rdn, entry)`.
    pub nodes: Vec<(Option<usize>, Option<Rdn>, Entry)>,
}

impl SubtreeInsertion {
    /// Number of entries in the subtree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Subtrees are never empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies this insertion to `dir`, returning the created ids (parallel
    /// to `nodes`; `ids[0]` is the subtree root). Fails with
    /// [`TxError::DuplicateRdn`] when a named node collides with an
    /// existing sibling — the one apply-time conflict two independently
    /// normalised transactions can have — and with
    /// [`TxError::Internal`] only if an invariant normalisation
    /// established no longer holds (e.g. the validated parent vanished
    /// between normalise and apply).
    pub fn apply(&self, dir: &mut DirectoryInstance) -> Result<Vec<EntryId>, TxError> {
        let mut ids: Vec<EntryId> = Vec::with_capacity(self.nodes.len());
        for (node, (local_parent, rdn, entry)) in self.nodes.iter().enumerate() {
            let parent = match local_parent {
                Some(i) => Some(*ids.get(*i).ok_or_else(|| {
                    TxError::Internal(format!(
                        "subtree node {node} references local parent {i}, which was not created"
                    ))
                })?),
                None => self.parent,
            };
            let named = |e: InstanceError, rdn: &Rdn| match e {
                InstanceError::DuplicateRdn(_) => {
                    TxError::DuplicateRdn { node, rdn: rdn.to_string() }
                }
                other => TxError::Internal(format!("inserting subtree node {node}: {other}")),
            };
            let id = match (parent, rdn) {
                (Some(p), Some(rdn)) => {
                    dir.add_named_child(p, rdn.clone(), entry.clone()).map_err(|e| named(e, rdn))?
                }
                (Some(p), None) => dir.add_child_entry(p, entry.clone()).map_err(|e| {
                    TxError::Internal(format!(
                        "inserting subtree node {node} under validated parent {p}: {e}"
                    ))
                })?,
                (None, Some(rdn)) => {
                    dir.add_named_root(rdn.clone(), entry.clone()).map_err(|e| named(e, rdn))?
                }
                (None, None) => dir.add_root_entry(entry.clone()),
            };
            ids.push(id);
        }
        Ok(ids)
    }
}

/// The Theorem 4.1 canonical form: subtree insertions, then subtree
/// deletions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NormalizedTx {
    /// Subtrees to insert, in first-touched order.
    pub insertions: Vec<SubtreeInsertion>,
    /// Roots of subtrees to delete. No root is an ancestor of another, and
    /// each deleted subtree is fully contained in the delete set.
    pub deletion_roots: Vec<EntryId>,
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an insert under an existing entry; returns the op index for
    /// use with [`insert_under_new`](Self::insert_under_new).
    pub fn insert_under(&mut self, parent: EntryId, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert { parent: Some(NodeRef::Existing(parent)), rdn: None, entry });
        self.ops.len() - 1
    }

    /// Appends an insert as a new forest root; returns the op index.
    pub fn insert_root(&mut self, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert { parent: None, rdn: None, entry });
        self.ops.len() - 1
    }

    /// Appends an insert under the entry created by a previous insert op.
    pub fn insert_under_new(&mut self, parent_op: usize, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert { parent: Some(NodeRef::New(parent_op)), rdn: None, entry });
        self.ops.len() - 1
    }

    /// Like [`insert_under`](Self::insert_under), naming the new entry so
    /// it is addressable by DN; colliding with an existing sibling RDN
    /// fails the transaction at apply time.
    pub fn insert_under_named(&mut self, parent: EntryId, rdn: Rdn, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert {
            parent: Some(NodeRef::Existing(parent)),
            rdn: Some(rdn),
            entry,
        });
        self.ops.len() - 1
    }

    /// Like [`insert_root`](Self::insert_root), naming the new root.
    pub fn insert_root_named(&mut self, rdn: Rdn, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert { parent: None, rdn: Some(rdn), entry });
        self.ops.len() - 1
    }

    /// Like [`insert_under_new`](Self::insert_under_new), naming the new
    /// entry.
    pub fn insert_under_new_named(&mut self, parent_op: usize, rdn: Rdn, entry: Entry) -> usize {
        self.ops.push(TxOp::Insert {
            parent: Some(NodeRef::New(parent_op)),
            rdn: Some(rdn),
            entry,
        });
        self.ops.len() - 1
    }

    /// Appends a delete.
    pub fn delete(&mut self, target: EntryId) {
        self.ops.push(TxOp::Delete { target });
    }

    /// Appends `op` as it stands — a journal decoder rebuilding the
    /// transaction it recorded, op for op.
    pub(crate) fn push(&mut self, op: TxOp) {
        self.ops.push(op);
    }

    /// The raw operations.
    pub fn ops(&self) -> &[TxOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Theorem 4.1 normalisation: validates the transaction against `dir`
    /// and groups it into subtree insertions followed by subtree deletions.
    pub fn normalize(&self, dir: &DirectoryInstance) -> Result<NormalizedTx, TxError> {
        // Collect the delete set first; inserts must not target it.
        let mut deleted: HashSet<EntryId> = HashSet::new();
        for op in &self.ops {
            if let TxOp::Delete { target } = op {
                if !dir.contains(*target) {
                    return Err(TxError::DeleteMissing(*target));
                }
                if !deleted.insert(*target) {
                    return Err(TxError::DuplicateDelete(*target));
                }
            }
        }
        // Closure check: every child of a deleted entry must be deleted.
        for &d in &deleted {
            for child in dir.forest().children(d) {
                if !deleted.contains(&child) {
                    return Err(TxError::DeleteLeavesOrphan { deleted: d, survivor: child });
                }
            }
        }
        // Deletion roots: deleted entries whose parent is not deleted.
        let mut deletion_roots: Vec<EntryId> = deleted
            .iter()
            .copied()
            .filter(|&d| dir.forest().parent(d).is_none_or(|p| !deleted.contains(&p)))
            .collect();
        deletion_roots.sort_unstable();

        // Group inserts into subtrees.
        let mut insertions: Vec<SubtreeInsertion> = Vec::new();
        // op index → (subtree index, local node index)
        let mut op_place: Vec<Option<(usize, usize)>> = vec![None; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate() {
            let TxOp::Insert { parent, rdn, entry } = op else {
                continue;
            };
            match parent {
                None => {
                    insertions.push(SubtreeInsertion {
                        parent: None,
                        nodes: vec![(None, rdn.clone(), entry.clone())],
                    });
                    op_place[i] = Some((insertions.len() - 1, 0));
                }
                Some(NodeRef::Existing(p)) => {
                    if !dir.contains(*p) {
                        return Err(TxError::InsertUnderMissing { op: i, parent: *p });
                    }
                    if deleted.contains(p) {
                        return Err(TxError::InsertUnderDeleted { op: i, parent: *p });
                    }
                    insertions.push(SubtreeInsertion {
                        parent: Some(*p),
                        nodes: vec![(None, rdn.clone(), entry.clone())],
                    });
                    op_place[i] = Some((insertions.len() - 1, 0));
                }
                Some(NodeRef::New(j)) => {
                    let Some((subtree, local)) = (*j < i).then(|| op_place[*j]).flatten() else {
                        return Err(TxError::BadNewRef { op: i, referenced: *j });
                    };
                    insertions[subtree].nodes.push((Some(local), rdn.clone(), entry.clone()));
                    op_place[i] = Some((subtree, insertions[subtree].nodes.len() - 1));
                }
            }
        }

        Ok(NormalizedTx { insertions, deletion_roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_directory::Entry;

    fn person(uid: &str) -> Entry {
        Entry::builder().classes(["person", "top"]).attr("uid", uid).build()
    }

    fn base() -> (DirectoryInstance, EntryId, EntryId, EntryId) {
        let mut d = DirectoryInstance::default();
        let root = d.add_root_entry(person("root"));
        let mid = d.add_child_entry(root, person("mid")).unwrap();
        let leaf = d.add_child_entry(mid, person("leaf")).unwrap();
        (d, root, mid, leaf)
    }

    #[test]
    fn inserts_group_into_subtrees() {
        let (d, root, mid, _) = base();
        let mut tx = Transaction::new();
        let a = tx.insert_under(root, person("a"));
        let b = tx.insert_under_new(a, person("b"));
        let _c = tx.insert_under_new(b, person("c"));
        let _d2 = tx.insert_under_new(a, person("d"));
        let _e = tx.insert_under(mid, person("e"));
        let n = tx.normalize(&d).unwrap();
        assert_eq!(n.insertions.len(), 2);
        assert_eq!(n.insertions[0].len(), 4); // a,b,c,d — one subtree
        assert_eq!(n.insertions[0].parent, Some(root));
        assert_eq!(n.insertions[1].len(), 1);
        assert_eq!(n.insertions[1].parent, Some(mid));
        assert!(n.deletion_roots.is_empty());
    }

    #[test]
    fn deletions_collapse_to_roots() {
        let (d, _root, mid, leaf) = base();
        let mut tx = Transaction::new();
        tx.delete(leaf);
        tx.delete(mid);
        let n = tx.normalize(&d).unwrap();
        assert_eq!(n.deletion_roots, [mid]);
        assert!(n.insertions.is_empty());
    }

    #[test]
    fn orphaning_delete_rejected() {
        let (d, _root, mid, leaf) = base();
        let mut tx = Transaction::new();
        tx.delete(mid); // leaf survives → unrealisable via leaf deletions
        assert_eq!(
            tx.normalize(&d),
            Err(TxError::DeleteLeavesOrphan { deleted: mid, survivor: leaf })
        );
    }

    #[test]
    fn insert_under_deleted_rejected() {
        let (d, _root, _mid, leaf) = base();
        let mut tx = Transaction::new();
        tx.delete(leaf);
        let op = tx.insert_under(leaf, person("x"));
        assert_eq!(tx.normalize(&d), Err(TxError::InsertUnderDeleted { op, parent: leaf }));
    }

    #[test]
    fn bad_refs_rejected() {
        let (d, root, _, _) = base();
        let mut tx = Transaction::new();
        tx.delete(root); // root has child mid → orphan error comes first? No:
                         // use a fresh tx to test each error precisely.
        let mut tx = Transaction::new();
        tx.insert_under_new(5, person("x"));
        assert_eq!(tx.normalize(&d), Err(TxError::BadNewRef { op: 0, referenced: 5 }));

        let mut tx = Transaction::new();
        let del = tx.insert_root(person("y")); // op 0 is insert
        let _ = del;
        tx.delete(EntryId::from_index(999));
        assert_eq!(tx.normalize(&d), Err(TxError::DeleteMissing(EntryId::from_index(999))));

        let (d, _, _, leaf) = base();
        let mut tx = Transaction::new();
        tx.delete(leaf);
        tx.delete(leaf);
        assert_eq!(tx.normalize(&d), Err(TxError::DuplicateDelete(leaf)));
    }

    #[test]
    fn referencing_a_delete_op_as_parent_fails() {
        let (d, _, _, leaf) = base();
        let mut tx = Transaction::new();
        tx.delete(leaf); // op 0
        tx.insert_under_new(0, person("x")); // op 0 is not an insert
        assert_eq!(tx.normalize(&d), Err(TxError::BadNewRef { op: 1, referenced: 0 }));
    }

    #[test]
    fn apply_subtree_insertion() {
        let (mut d, root, _, _) = base();
        let mut tx = Transaction::new();
        let a = tx.insert_under(root, person("a"));
        tx.insert_under_new(a, person("b"));
        let n = tx.normalize(&d).unwrap();
        let ids = n.insertions[0].apply(&mut d).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(d.forest().parent(ids[0]), Some(root));
        assert_eq!(d.forest().parent(ids[1]), Some(ids[0]));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn named_inserts_are_addressable_and_conflict_on_duplicate_rdn() {
        let mut d = DirectoryInstance::default();
        let root = d.add_named_root(Rdn::single("o", "acme"), person("acme")).unwrap();

        let mut tx = Transaction::new();
        let a = tx.insert_under_named(root, Rdn::single("uid", "a"), person("a"));
        tx.insert_under_new_named(a, Rdn::single("uid", "kid"), person("kid"));
        let n = tx.normalize(&d).unwrap();
        let ids = n.insertions[0].apply(&mut d).unwrap();
        assert_eq!(d.dn(ids[1]).unwrap().to_string(), "uid=kid,uid=a,o=acme");

        // A second transaction inserting the same name under the same
        // parent conflicts at apply time.
        let mut tx = Transaction::new();
        tx.insert_under_named(root, Rdn::single("uid", "A"), person("a2"));
        let n = tx.normalize(&d).unwrap();
        let err = n.insertions[0].apply(&mut d).unwrap_err();
        assert!(matches!(err, TxError::DuplicateRdn { node: 0, .. }), "{err}");
    }

    #[test]
    fn root_insertions() {
        let (d, ..) = base();
        let mut tx = Transaction::new();
        let r = tx.insert_root(person("new-root"));
        tx.insert_under_new(r, person("kid"));
        let n = tx.normalize(&d).unwrap();
        assert_eq!(n.insertions.len(), 1);
        assert_eq!(n.insertions[0].parent, None);
        assert_eq!(n.insertions[0].len(), 2);
    }
}
