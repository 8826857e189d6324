//! Witness construction: build a legal instance for a consistent schema.
//!
//! Theorem 5.2's "if" direction says a schema whose closure avoids `◇∅`
//! admits at least one legal instance. This module makes that constructive:
//! a chase over the required elements builds a finite instance, which is
//! then verified with the legality checker. The builder doubles as an
//! empirical completeness check for the inference engine — if it ever fails
//! on a schema the engine calls consistent, either the chase strategy or
//! the rule set is missing a case (property tests watch for this).

use std::collections::BTreeSet;
use std::fmt;

use bschema_directory::{DirectoryInstance, Entry};

use crate::legality::{LegalityChecker, LegalityReport};
use crate::schema::{ClassId, DirectorySchema, ForbidKind, RelKind};

/// Why witness construction failed.
#[derive(Debug, Clone)]
pub enum WitnessError {
    /// The chase kept creating entries past the size budget — the schema is
    /// likely inconsistent via a cycle (or the budget was too small).
    Diverged {
        /// The node budget that was exhausted.
        budget: usize,
    },
    /// A forced placement required one node to belong to incomparable core
    /// classes.
    IncompatibleClasses {
        /// Name of one class.
        first: String,
        /// Name of the other.
        second: String,
    },
    /// A required child/descendant could not be placed without violating a
    /// forbidden relationship.
    Blocked {
        /// Human-readable description of the blocked obligation.
        obligation: String,
    },
    /// The chase finished but the result failed the legality check — an
    /// incompleteness signal (see module docs).
    IllegalWitness(LegalityReport),
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WitnessError::Diverged { budget } => {
                write!(f, "witness chase exceeded {budget} nodes (cyclic requirements?)")
            }
            WitnessError::IncompatibleClasses { first, second } => {
                write!(f, "a forced node would need incomparable classes {first:?} and {second:?}")
            }
            WitnessError::Blocked { obligation } => {
                write!(f, "cannot satisfy {obligation} without violating a forbidden relationship")
            }
            WitnessError::IllegalWitness(report) => {
                write!(f, "chase produced an illegal instance:\n{report}")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// An abstract tree node during the chase.
#[derive(Debug, Clone, Default)]
struct Node {
    /// Core classes, kept superclass-closed and chain-shaped.
    classes: BTreeSet<ClassId>,
    parent: Option<usize>,
    children: Vec<usize>,
}

/// The witness builder.
#[derive(Debug, Clone)]
pub struct WitnessBuilder<'s> {
    schema: &'s DirectorySchema,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    budget: usize,
}

impl<'s> WitnessBuilder<'s> {
    /// A builder for `schema` with a node budget derived from the schema
    /// size (quadratic headroom over the obligation count).
    pub fn new(schema: &'s DirectorySchema) -> Self {
        let base = schema.classes().len() + schema.structure().len() + 4;
        WitnessBuilder { schema, nodes: Vec::new(), roots: Vec::new(), budget: base * base + 64 }
    }

    /// Runs the chase and returns a verified-legal instance.
    pub fn build(mut self) -> Result<DirectoryInstance, WitnessError> {
        // Seed: one node per required class.
        let required: Vec<ClassId> = self.schema.structure().required_classes().collect();
        for class in required {
            let node = self.new_node(class)?;
            self.roots.push(node);
            self.nodes[node].parent = None;
        }

        // Chase to fixpoint.
        loop {
            let mut changed = false;
            // Snapshot indices; new nodes are processed in later sweeps.
            for node in 0..self.nodes.len() {
                changed |= self.discharge_obligations(node)?;
                if self.nodes.len() > self.budget {
                    return Err(WitnessError::Diverged { budget: self.budget });
                }
            }
            if !changed {
                break;
            }
        }

        let dir = self.materialize();
        let report = LegalityChecker::new(self.schema).check(&dir);
        if report.is_legal() {
            Ok(dir)
        } else {
            Err(WitnessError::IllegalWitness(report))
        }
    }

    fn new_node(&mut self, class: ClassId) -> Result<usize, WitnessError> {
        let mut node = Node::default();
        Self::merge_chain_into(self.schema, &mut node.classes, class)?;
        self.nodes.push(node);
        Ok(self.nodes.len() - 1)
    }

    /// Adds `class` and its superclasses to `set`, verifying the result is
    /// still a chain.
    fn merge_chain_into(
        schema: &DirectorySchema,
        set: &mut BTreeSet<ClassId>,
        class: ClassId,
    ) -> Result<(), WitnessError> {
        let classes = schema.classes();
        for c in classes.superclass_chain(class) {
            for &existing in set.iter() {
                if classes.are_exclusive(c, existing) {
                    return Err(WitnessError::IncompatibleClasses {
                        first: classes.name(c).to_owned(),
                        second: classes.name(existing).to_owned(),
                    });
                }
            }
            set.insert(c);
        }
        Ok(())
    }

    fn has_class(&self, node: usize, class: ClassId) -> bool {
        self.nodes[node].classes.contains(&class)
    }

    fn ancestors(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.nodes[node].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    fn descendants(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.nodes[node].children.clone();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out
    }

    /// True if creating a `lower`-classed child under `node` would violate a
    /// forbidden-child element literally (checking `node`'s classes), or a
    /// forbidden-descendant element from `node` or any ancestor.
    fn child_blocked(&self, node: usize, lower: ClassId) -> bool {
        let classes = self.schema.classes();
        let lower_chain: BTreeSet<ClassId> = classes.superclass_chain(lower).into_iter().collect();
        for rel in self.schema.structure().forbidden_rels() {
            if !lower_chain.contains(&rel.lower) {
                continue;
            }
            match rel.kind {
                ForbidKind::Child => {
                    if self.has_class(node, rel.upper) {
                        return true;
                    }
                }
                ForbidKind::Descendant => {
                    if self.has_class(node, rel.upper)
                        || self.ancestors(node).iter().any(|&a| self.has_class(a, rel.upper))
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn add_child(&mut self, parent: usize, class: ClassId) -> Result<usize, WitnessError> {
        let child = self.new_node(class)?;
        self.nodes[child].parent = Some(parent);
        self.nodes[parent].children.push(child);
        Ok(child)
    }

    /// Creates a fresh parent above `node` (which must currently be a root).
    fn add_parent_above_root(
        &mut self,
        node: usize,
        class: ClassId,
    ) -> Result<usize, WitnessError> {
        debug_assert!(self.nodes[node].parent.is_none());
        let parent = self.new_node(class)?;
        self.nodes[node].parent = Some(parent);
        self.nodes[parent].children.push(node);
        let pos = self.roots.iter().position(|&r| r == node).expect("node was a root");
        self.roots[pos] = parent;
        Ok(parent)
    }

    /// Discharges every required-relationship obligation of `node` once;
    /// returns whether anything changed.
    fn discharge_obligations(&mut self, node: usize) -> Result<bool, WitnessError> {
        let mut changed = false;
        let rels: Vec<_> = self.schema.structure().required_rels().to_vec();
        for rel in rels {
            if !self.has_class(node, rel.source) {
                continue;
            }
            match rel.kind {
                RelKind::Child => {
                    let ok =
                        self.nodes[node].children.iter().any(|&c| self.has_class(c, rel.target));
                    if !ok {
                        if self.child_blocked(node, rel.target) {
                            return Err(WitnessError::Blocked {
                                obligation: self.schema.display_required(&rel),
                            });
                        }
                        self.add_child(node, rel.target)?;
                        changed = true;
                    }
                }
                RelKind::Descendant => {
                    let ok = self.descendants(node).iter().any(|&d| self.has_class(d, rel.target));
                    if !ok {
                        if !self.child_blocked(node, rel.target) {
                            self.add_child(node, rel.target)?;
                        } else if !self.child_blocked(node, self.schema.classes().top()) {
                            // Route around a forbidden-child rule with a
                            // plain `top` spacer.
                            let spacer = self.add_child(node, self.schema.classes().top())?;
                            if self.child_blocked(spacer, rel.target) {
                                return Err(WitnessError::Blocked {
                                    obligation: self.schema.display_required(&rel),
                                });
                            }
                            self.add_child(spacer, rel.target)?;
                        } else {
                            return Err(WitnessError::Blocked {
                                obligation: self.schema.display_required(&rel),
                            });
                        }
                        changed = true;
                    }
                }
                RelKind::Parent => match self.nodes[node].parent {
                    Some(p) => {
                        if !self.has_class(p, rel.target) {
                            let mut merged = self.nodes[p].classes.clone();
                            Self::merge_chain_into(self.schema, &mut merged, rel.target)?;
                            self.nodes[p].classes = merged;
                            changed = true;
                        }
                    }
                    None => {
                        self.add_parent_above_root(node, rel.target)?;
                        changed = true;
                    }
                },
                RelKind::Ancestor => {
                    let ok = self.ancestors(node).iter().any(|&a| self.has_class(a, rel.target));
                    if ok {
                        continue;
                    }
                    // Try merging into the nearest compatible ancestor.
                    let mut satisfied = false;
                    for a in self.ancestors(node) {
                        let mut merged = self.nodes[a].classes.clone();
                        if Self::merge_chain_into(self.schema, &mut merged, rel.target).is_ok() {
                            self.nodes[a].classes = merged;
                            satisfied = true;
                            break;
                        }
                    }
                    if !satisfied {
                        // Create a new root above this node's current root.
                        let mut top_node = node;
                        while let Some(p) = self.nodes[top_node].parent {
                            top_node = p;
                        }
                        self.add_parent_above_root(top_node, rel.target)?;
                    }
                    changed = true;
                }
            }
        }
        Ok(changed)
    }

    /// Turns the abstract tree into a directory instance, filling required
    /// attributes with placeholder values.
    fn materialize(&self) -> DirectoryInstance {
        let mut dir = DirectoryInstance::default();
        let mut ids = vec![None; self.nodes.len()];
        // Roots first, then a preorder sweep.
        let mut stack: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            let entry = self.entry_for(n);
            let id = match self.nodes[n].parent {
                Some(p) => dir
                    .add_child_entry(ids[p].expect("parents are materialized first"), entry)
                    .expect("parent id is live"),
                None => dir.add_root_entry(entry),
            };
            ids[n] = Some(id);
            stack.extend(self.nodes[n].children.iter().rev().copied());
        }
        dir.prepare();
        dir
    }

    fn entry_for(&self, node: usize) -> Entry {
        let classes = self.schema.classes();
        let mut builder = Entry::builder();
        for &c in &self.nodes[node].classes {
            builder = builder.class(classes.name(c));
        }
        let mut entry = builder.build();
        for &c in &self.nodes[node].classes {
            for attr in self.schema.attributes().required(c) {
                if !entry.has_attribute(attr) {
                    entry.add_value(attr, "w");
                }
            }
        }
        entry
    }
}

/// Convenience: check consistency and, if consistent, build the witness.
pub fn build_witness(schema: &DirectorySchema) -> Result<DirectoryInstance, WitnessError> {
    WitnessBuilder::new(schema).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencyChecker;
    use crate::paper::white_pages_schema;

    #[test]
    fn white_pages_schema_has_a_witness() {
        let schema = white_pages_schema();
        assert!(ConsistencyChecker::new(&schema).check().is_consistent());
        let witness = build_witness(&schema).expect("consistent schema must have a witness");
        assert!(!witness.is_empty());
        assert!(LegalityChecker::new(&schema).check(&witness).is_legal());
    }

    #[test]
    fn empty_schema_has_empty_witness() {
        let schema = DirectorySchema::new();
        let witness = build_witness(&schema).unwrap();
        assert!(witness.is_empty());
    }

    #[test]
    fn parent_chain_schema() {
        // ◇c1, c1 needs c2 parent, c2 needs c3 parent: three-node chain.
        let schema = DirectorySchema::builder()
            .core_class("c1", "top")
            .and_then(|b| b.core_class("c2", "top"))
            .and_then(|b| b.core_class("c3", "top"))
            .and_then(|b| b.require_class("c1"))
            .and_then(|b| b.require_rel("c1", RelKind::Parent, "c2"))
            .and_then(|b| b.require_rel("c2", RelKind::Parent, "c3"))
            .map(|b| b.build())
            .unwrap();
        let witness = build_witness(&schema).unwrap();
        assert_eq!(witness.len(), 3);
        assert!(LegalityChecker::new(&schema).check(&witness).is_legal());
    }

    #[test]
    fn descendant_routed_around_forbidden_child() {
        // c1 needs a c2 descendant but may not have a c2 child: the chase
        // inserts a top spacer.
        let schema = DirectorySchema::builder()
            .core_class("c1", "top")
            .and_then(|b| b.core_class("c2", "top"))
            .and_then(|b| b.require_class("c1"))
            .and_then(|b| b.require_rel("c1", RelKind::Descendant, "c2"))
            .and_then(|b| b.forbid_rel("c1", crate::schema::ForbidKind::Child, "c2"))
            .map(|b| b.build())
            .unwrap();
        assert!(ConsistencyChecker::new(&schema).check().is_consistent());
        let witness = build_witness(&schema).unwrap();
        assert!(LegalityChecker::new(&schema).check(&witness).is_legal());
        assert_eq!(witness.len(), 3); // c1, spacer, c2
    }

    #[test]
    fn inconsistent_cycle_diverges_or_blocks() {
        // ◇c1, c1 →ch c2, c2 →de c1: the §5.1 cycle — no finite instance.
        let schema = DirectorySchema::builder()
            .core_class("c1", "top")
            .and_then(|b| b.core_class("c2", "top"))
            .and_then(|b| b.require_class("c1"))
            .and_then(|b| b.require_rel("c1", RelKind::Child, "c2"))
            .and_then(|b| b.require_rel("c2", RelKind::Descendant, "c1"))
            .map(|b| b.build())
            .unwrap();
        assert!(!ConsistencyChecker::new(&schema).check().is_consistent());
        assert!(matches!(WitnessBuilder::new(&schema).build(), Err(WitnessError::Diverged { .. })));
    }
}
