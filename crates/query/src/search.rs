//! LDAP search operations: filter + base entry + scope.
//!
//! The paper's §1 describes the access pattern this models: "directory
//! applications retrieve entries that match (a boolean combination of)
//! conditions on individual attributes, the retrieval typically scoped to
//! some subtree of the hierarchy". The three scopes are the standard LDAP
//! ones (RFC 2251 §4.5.1): the base entry alone, its immediate children, or
//! its whole subtree.

use bschema_directory::{DirectoryInstance, Dn, EntryId};

use crate::eval::EvalContext;
use crate::filter::Filter;
use crate::result;

/// The LDAP search scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchScope {
    /// Only the base entry itself (`baseObject`).
    Base,
    /// Immediate children of the base entry, excluding it (`singleLevel`).
    OneLevel,
    /// The base entry and all its descendants (`wholeSubtree`).
    #[default]
    Subtree,
}

impl SearchScope {
    /// The scope's word — `base`, `one`, `sub` — as the wire, the CLI
    /// and EXPLAIN spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            SearchScope::Base => "base",
            SearchScope::OneLevel => "one",
            SearchScope::Subtree => "sub",
        }
    }
}

/// The one reader of scope words, offline and on the wire: `base`,
/// `one` / `onelevel`, `sub` / `subtree`.
impl std::str::FromStr for SearchScope {
    type Err = String;

    fn from_str(word: &str) -> Result<Self, String> {
        match word {
            "base" => Ok(SearchScope::Base),
            "one" | "onelevel" => Ok(SearchScope::OneLevel),
            "sub" | "subtree" => Ok(SearchScope::Subtree),
            other => Err(format!("unknown scope {other:?}")),
        }
    }
}

/// A search request. `base = None` searches the whole directory (all roots,
/// as if under a virtual super-root; scope then behaves as: `Base` → roots,
/// `OneLevel` → roots, `Subtree` → everything).
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The entry the search is rooted at, if any.
    pub base: Option<EntryId>,
    /// How far below the base to look.
    pub scope: SearchScope,
    /// The entry condition.
    pub filter: Filter,
    /// Stop after this many hits (LDAP `sizeLimit`); `None` = unlimited.
    pub size_limit: Option<usize>,
}

impl SearchRequest {
    /// A whole-directory subtree search.
    pub fn whole_directory(filter: Filter) -> Self {
        SearchRequest { base: None, scope: SearchScope::Subtree, filter, size_limit: None }
    }

    /// A search rooted at `base`.
    pub fn under(base: EntryId, scope: SearchScope, filter: Filter) -> Self {
        SearchRequest { base: Some(base), scope, filter, size_limit: None }
    }

    /// Caps the number of results.
    pub fn with_size_limit(mut self, limit: usize) -> Self {
        self.size_limit = Some(limit);
        self
    }
}

/// Executes a search against a prepared instance. Results come back in
/// preorder (document) order, truncated at the size limit.
pub fn search(dir: &DirectoryInstance, request: &SearchRequest) -> Vec<EntryId> {
    let ctx = EvalContext::new(dir);
    let forest = dir.forest();
    let matches_filter =
        |id: EntryId| dir.entry(id).is_some_and(|e| request.filter.matches(e, dir.registry()));

    let mut out = match (request.base, request.scope) {
        (Some(base), SearchScope::Base) => {
            if matches_filter(base) {
                vec![base]
            } else {
                Vec::new()
            }
        }
        (Some(base), SearchScope::OneLevel) => {
            forest.children(base).filter(|&c| matches_filter(c)).collect()
        }
        (Some(base), SearchScope::Subtree) => {
            // Evaluate the filter globally through the indexes, then cut the
            // contiguous preorder range of the subtree — cheaper than
            // per-entry testing when the filter is selective.
            let all =
                crate::eval::evaluate(&ctx, &crate::algebra::Query::select(request.filter.clone()));
            result::restrict_to_subtree(forest, &all, base)
        }
        (None, SearchScope::Subtree) => {
            crate::eval::evaluate(&ctx, &crate::algebra::Query::select(request.filter.clone()))
        }
        (None, _) => forest.roots().filter(|&r| matches_filter(r)).collect(),
    };

    if let Some(limit) = request.size_limit {
        out.truncate(limit);
    }
    out
}

/// DN-addressed convenience: resolves `base_dn` and searches under it.
/// Returns `None` when the base DN does not name an entry.
pub fn search_dn(
    dir: &DirectoryInstance,
    base_dn: &Dn,
    scope: SearchScope,
    filter: Filter,
) -> Option<Vec<EntryId>> {
    let base = dir.lookup_dn(base_dn)?;
    Some(search(dir, &SearchRequest::under(base, scope, filter)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_directory::{DirectoryInstance, Entry, Rdn};

    /// org ── labs ── {alice, db ── {bob, carol}}
    fn fixture() -> (DirectoryInstance, [EntryId; 6]) {
        let mut d = DirectoryInstance::white_pages();
        let org = d
            .add_named_root(
                Rdn::single("o", "att"),
                Entry::builder().classes(["organization", "top"]).attr("o", "att").build(),
            )
            .unwrap();
        let labs = d
            .add_named_child(
                org,
                Rdn::single("ou", "labs"),
                Entry::builder().classes(["orgUnit", "top"]).attr("ou", "labs").build(),
            )
            .unwrap();
        let alice = d
            .add_named_child(
                labs,
                Rdn::single("uid", "alice"),
                Entry::builder()
                    .classes(["person", "top"])
                    .attr("uid", "alice")
                    .attr("mail", "a@x")
                    .build(),
            )
            .unwrap();
        let db = d
            .add_named_child(
                labs,
                Rdn::single("ou", "db"),
                Entry::builder().classes(["orgUnit", "top"]).attr("ou", "db").build(),
            )
            .unwrap();
        let bob = d
            .add_named_child(
                db,
                Rdn::single("uid", "bob"),
                Entry::builder().classes(["person", "top"]).attr("uid", "bob").build(),
            )
            .unwrap();
        let carol = d
            .add_named_child(
                db,
                Rdn::single("uid", "carol"),
                Entry::builder()
                    .classes(["person", "top"])
                    .attr("uid", "carol")
                    .attr("mail", "c@x")
                    .build(),
            )
            .unwrap();
        d.prepare();
        (d, [org, labs, alice, db, bob, carol])
    }

    #[test]
    fn base_scope() {
        let (d, [org, ..]) = fixture();
        let req =
            SearchRequest::under(org, SearchScope::Base, Filter::object_class("organization"));
        assert_eq!(search(&d, &req), [org]);
        let req = SearchRequest::under(org, SearchScope::Base, Filter::object_class("person"));
        assert_eq!(search(&d, &req), []);
    }

    #[test]
    fn one_level_scope() {
        let (d, [_, labs, alice, db, ..]) = fixture();
        let req = SearchRequest::under(labs, SearchScope::OneLevel, Filter::True);
        assert_eq!(search(&d, &req), [alice, db]);
        // Does not include the base or grandchildren.
        let req = SearchRequest::under(labs, SearchScope::OneLevel, Filter::object_class("person"));
        assert_eq!(search(&d, &req), [alice]);
    }

    #[test]
    fn subtree_scope_includes_base() {
        let (d, [_, labs, alice, db, bob, carol]) = fixture();
        let req = SearchRequest::under(labs, SearchScope::Subtree, Filter::True);
        assert_eq!(search(&d, &req), [labs, alice, db, bob, carol]);
        let req = SearchRequest::under(db, SearchScope::Subtree, Filter::object_class("person"));
        assert_eq!(search(&d, &req), [bob, carol]);
    }

    #[test]
    fn whole_directory_search() {
        let (d, ids) = fixture();
        let req = SearchRequest::whole_directory(Filter::present("mail"));
        assert_eq!(search(&d, &req), [ids[2], ids[5]]);
    }

    #[test]
    fn size_limit_truncates_in_document_order() {
        let (d, [_, labs, alice, ..]) = fixture();
        let req = SearchRequest::under(labs, SearchScope::Subtree, Filter::object_class("person"))
            .with_size_limit(1);
        assert_eq!(search(&d, &req), [alice]);
    }

    #[test]
    fn dn_addressed_search() {
        let (d, [.., bob, carol]) = fixture();
        let hits = search_dn(
            &d,
            &"ou=db,ou=labs,o=att".parse().unwrap(),
            SearchScope::OneLevel,
            Filter::object_class("person"),
        )
        .expect("base DN resolves");
        assert_eq!(hits, [bob, carol]);
        assert!(
            search_dn(&d, &"o=nope".parse().unwrap(), SearchScope::Base, Filter::True).is_none()
        );
    }

    #[test]
    fn scope_words_parse_both_spellings_and_render_the_short_one() {
        for (words, scope) in [
            (&["base"][..], SearchScope::Base),
            (&["one", "onelevel"], SearchScope::OneLevel),
            (&["sub", "subtree"], SearchScope::Subtree),
        ] {
            for word in words {
                assert_eq!(word.parse::<SearchScope>(), Ok(scope));
            }
            assert_eq!(scope.as_str().parse::<SearchScope>(), Ok(scope));
            assert_eq!(scope.as_str(), words[0]);
        }
        assert_eq!("tree".parse::<SearchScope>(), Err("unknown scope \"tree\"".to_owned()));
    }

    #[test]
    fn root_scopes_without_base() {
        let (d, [org, ..]) = fixture();
        let req = SearchRequest {
            base: None,
            scope: SearchScope::Base,
            filter: Filter::True,
            size_limit: None,
        };
        assert_eq!(search(&d, &req), [org]);
    }
}
