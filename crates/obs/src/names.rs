//! The metric names code reads back.
//!
//! A counter or histogram that only an exporter dumps can be named at
//! its call site. A name that other code *looks up* — the `HEALTH`
//! verdict, `bschema top`, the tests — is spelled once here and used on
//! both sides, so a typo fails to build instead of reading as a silent
//! zero. A family (`server.tx_rejected`) is a prefix; its members are
//! `<family>.<label>`, as [`Probe::add_labeled`](crate::Probe::add_labeled)
//! writes them.

/// Declares each name as a `pub const` documented by what it counts, and
/// [`TABLE`] listing them all.
macro_rules! names {
    ($($name:ident = $key:literal, $unit:literal, $what:literal;)*) => {
        $(#[doc = $what] pub const $name: &str = $key;)*

        /// Every name above: `(name, unit, what it counts)`.
        pub const TABLE: &[(&str, &str, &str)] = &[$(($key, $unit, $what)),*];
    };
}

names! {
    REQUEST_MICROS = "server.request_micros", "us", "Every request's latency, all verbs.";
    REQUEST_US = "server.request_us", "us", "Request latency per verb; label = the verb.";
    REJECTED_US = "server.rejected_us", "us", "Refused requests' latency; label = the code.";
    QUEUE_DEPTH = "server.queue_depth", "count", "Accept-queue depth at each enqueue.";
    TX_COMMITTED = "server.tx_committed", "count", "Writes that committed (§3 legal rate).";
    TX_REJECTED = "server.tx_rejected", "count", "Refused writes; label = the code.";
    DELTA_QUERY = "incremental.delta_query", "count", "Δ-queries; label = the Figure 5 row.";
    SHARD_PREPARE = "sharded.prepare", "count", "Cross-shard prepares; label = `shard(k)`.";
    SHARD_COMMIT = "sharded.commit", "count", "Cross-shard commits; label = `shard(k)`.";
    PREPARED = "sharded.prepared", "count", "Cross-shard transactions every shard prepared.";
    ROLLBACK = "sharded.rollback", "count", "Cross-shard transactions rolled back.";
}

/// The member of `family` labelled `label`: `<family>.<label>`.
pub fn labeled(family: &str, label: &str) -> String {
    format!("{family}.{label}")
}

/// The label of `key` when it is a member of `family`.
pub fn label<'k>(key: &'k str, family: &str) -> Option<&'k str> {
    key.strip_prefix(family)?.strip_prefix('.')
}

/// Shard `k`'s label in a per-shard family (`sharded.prepare.shard3`).
pub fn shard(k: usize) -> String {
    format!("shard{k}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_labels_round_trip() {
        for (i, (a, _, _)) in TABLE.iter().enumerate() {
            for (b, _, _) in &TABLE[i + 1..] {
                assert_ne!(a, b);
                assert!(label(a, b).is_none() && label(b, a).is_none(), "{a} inside {b}");
            }
        }
        let key = labeled(SHARD_COMMIT, &shard(12));
        assert_eq!(key, "sharded.commit.shard12");
        assert_eq!(label(&key, SHARD_COMMIT), Some("shard12"));
        assert_eq!(label("sharded.committed", SHARD_COMMIT), None);
        assert_eq!(label(&labeled(TX_REJECTED, "read-only"), TX_REJECTED), Some("read-only"));
    }
}
