//! Figure 5′ against Figure 5: the assertion the differential and chaos
//! drivers run after every committed transaction, beside
//! [`check_prepared`](DirectoryInstance::check_prepared).
//!
//! The served write path certifies a deletion with
//! [`check_deletion_scoped`](IncrementalChecker::check_deletion_scoped),
//! which looks at the deleted subtrees' former parents and their
//! ancestors only. The paper's own recheck of the two "no" rows over all
//! of D − ∆D, [`check_deletion`](IncrementalChecker::check_deletion), is
//! the oracle: same input, same report — in particular a violation the
//! scoped check let through shows up here as a difference.

use bschema_core::schema::DirectorySchema;
use bschema_core::updates::IncrementalChecker;
use bschema_directory::{DirectoryInstance, Entry, EntryId};

/// Compares the two deletion checks on the step `before` → `after`, one
/// transaction applied to a prepared instance. The deleted subtrees are
/// read off the two versions: a transaction inserts before it deletes,
/// so an entry it deleted is live in `before` and its slot free in
/// `after`.
pub fn scoped_deletion_matches_figure5(
    schema: &DirectorySchema,
    before: &DirectoryInstance,
    after: &DirectoryInstance,
) -> Result<(), String> {
    let gone: Vec<EntryId> = before.forest().iter().filter(|&id| !after.contains(id)).collect();
    let removed: Vec<Entry> =
        gone.iter().map(|&id| before.entry(id).expect("live in `before`").clone()).collect();
    let former_parents: Vec<Option<EntryId>> = gone
        .iter()
        .map(|&id| before.forest().parent(id))
        .filter(|parent| parent.is_none_or(|p| after.contains(p)))
        .collect();
    let checker = IncrementalChecker::new(schema);
    let scoped = checker.check_deletion_scoped(after, &removed, &former_parents);
    let figure5 = checker.check_deletion(after, &removed);
    if scoped == figure5 {
        Ok(())
    } else {
        Err(format!(
            "deleting {gone:?}: the scoped check reports\n{scoped}\nthe Figure 5 recheck\n{figure5}"
        ))
    }
}
