//! The single-inheritance class hierarchy used for subtype tests.
//!
//! The `SafeCast` client (§5.2) needs to decide, for each downcast
//! `(T) v`, whether every abstract object in `pts(v)` has a runtime class
//! that is a subtype of `T`. Virtual-call resolution (CHA and on-the-fly)
//! also consults the hierarchy.

use std::collections::HashMap;

use crate::ids::ClassId;

/// Metadata for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// Source-level name; unique within a [`Hierarchy`].
    pub name: String,
    /// Direct superclass, `None` only for the root class.
    pub superclass: Option<ClassId>,
}

/// A single-inheritance class hierarchy.
///
/// Class 0 is always the root (conventionally `Object`). Subtype tests are
/// answered in O(1) via an Euler-tour interval encoding computed lazily by
/// [`Hierarchy::seal`] (and automatically when the owning PAG is frozen).
///
/// # Examples
///
/// ```
/// use dynsum_pag::Hierarchy;
///
/// let mut h = Hierarchy::new();
/// let object = h.root();
/// let vec = h.add_class("Vector", Some(object)).unwrap();
/// let stack = h.add_class("Stack", Some(vec)).unwrap();
/// let mut sealed = h;
/// sealed.seal();
/// assert!(sealed.is_subtype(stack, object));
/// assert!(sealed.is_subtype(stack, vec));
/// assert!(!sealed.is_subtype(vec, stack));
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    classes: Vec<ClassInfo>,
    /// Name → id, so [`find`](Self::find) and the duplicate check in
    /// [`add_class`](Self::add_class) do not scan `classes`.
    names: HashMap<String, ClassId>,
    /// Children adjacency, used for the interval encoding and CHA cones.
    children: Vec<Vec<ClassId>>,
    /// `intervals[c] = (pre, post)`: `a <: b` iff `b.pre <= a.pre < b.post`.
    intervals: Vec<(u32, u32)>,
    sealed: bool,
}

/// Error returned when adding a class fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// A class with this name already exists.
    DuplicateClass(String),
    /// The named superclass identifier is out of range.
    UnknownSuperclass(ClassId),
    /// The hierarchy was already sealed; no further classes can be added.
    Sealed,
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::DuplicateClass(name) => {
                write!(f, "duplicate class name `{name}`")
            }
            HierarchyError::UnknownSuperclass(id) => {
                write!(f, "unknown superclass {id}")
            }
            HierarchyError::Sealed => write!(f, "hierarchy is sealed"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl Hierarchy {
    /// Name given to the implicit root class.
    pub const ROOT_NAME: &'static str = "Object";

    /// Creates a hierarchy containing only the root class `Object`.
    pub fn new() -> Self {
        Hierarchy {
            classes: vec![ClassInfo {
                name: Self::ROOT_NAME.to_owned(),
                superclass: None,
            }],
            names: HashMap::from([(Self::ROOT_NAME.to_owned(), ClassId::from_raw(0))]),
            children: vec![Vec::new()],
            intervals: Vec::new(),
            sealed: false,
        }
    }

    /// The root class (`Object`).
    #[inline]
    pub fn root(&self) -> ClassId {
        ClassId::from_raw(0)
    }

    /// Number of classes, including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if only the root class exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.classes.len() == 1
    }

    /// Adds a class under `superclass` (the root when `None`).
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken, the superclass is unknown, or
    /// the hierarchy is already sealed.
    pub fn add_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
    ) -> Result<ClassId, HierarchyError> {
        if self.sealed {
            return Err(HierarchyError::Sealed);
        }
        if self.names.contains_key(name) {
            return Err(HierarchyError::DuplicateClass(name.to_owned()));
        }
        let superclass = superclass.unwrap_or_else(|| self.root());
        if superclass.index() >= self.classes.len() {
            return Err(HierarchyError::UnknownSuperclass(superclass));
        }
        let id = ClassId::from_raw(self.classes.len() as u32);
        self.names.insert(name.to_owned(), id);
        self.classes.push(ClassInfo {
            name: name.to_owned(),
            superclass: Some(superclass),
        });
        self.children.push(Vec::new());
        self.children[superclass.index()].push(id);
        Ok(id)
    }

    /// Looks a class up by name.
    pub fn find(&self, name: &str) -> Option<ClassId> {
        self.names.get(name).copied()
    }

    /// Metadata for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn info(&self, class: ClassId) -> &ClassInfo {
        &self.classes[class.index()]
    }

    /// Name of `class`.
    pub fn name(&self, class: ClassId) -> &str {
        &self.classes[class.index()].name
    }

    /// Direct superclass (`None` for the root).
    pub fn superclass(&self, class: ClassId) -> Option<ClassId> {
        self.classes[class.index()].superclass
    }

    /// Direct subclasses of `class`.
    pub fn subclasses(&self, class: ClassId) -> &[ClassId] {
        &self.children[class.index()]
    }

    /// Iterates over all classes in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassInfo)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId::from_raw(i as u32), c))
    }

    /// Freezes the hierarchy and computes the O(1) subtype encoding.
    ///
    /// Called automatically by [`PagBuilder::finish`](crate::PagBuilder).
    /// Idempotent.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let mut intervals = vec![(0, 0); self.classes.len()];
        let mut clock = 0u32;
        // Iterative DFS from the root; the hierarchy is a tree by
        // construction so every class is visited exactly once.
        let root = self.root();
        let mut stack: Vec<(ClassId, usize)> = vec![(root, 0)];
        intervals[root.index()].0 = clock;
        clock += 1;
        while let Some(top) = stack.last_mut() {
            let (node, child_idx) = (top.0, top.1);
            if child_idx < self.children[node.index()].len() {
                let child = self.children[node.index()][child_idx];
                top.1 += 1;
                intervals[child.index()].0 = clock;
                clock += 1;
                stack.push((child, 0));
            } else {
                intervals[node.index()].1 = clock;
                stack.pop();
            }
        }
        self.intervals = intervals;
        self.sealed = true;
    }

    /// Returns `true` once [`seal`](Self::seal) has been called.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Subtype test: is `sub` equal to, or a (transitive) subclass of,
    /// `sup`?
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has not been sealed, or either id is out of
    /// range.
    #[inline]
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        assert!(self.sealed, "hierarchy must be sealed before subtype tests");
        let (sub_pre, _) = self.intervals[sub.index()];
        let (sup_pre, sup_post) = self.intervals[sup.index()];
        sup_pre <= sub_pre && sub_pre < sup_post
    }

    /// All classes in the *cone* of `class`: `class` itself plus every
    /// transitive subclass. This is the CHA dispatch set for a receiver of
    /// declared type `class`.
    pub fn cone(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children[c.index()].iter().copied());
        }
        out.sort_unstable();
        out
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Hierarchy, ClassId, ClassId, ClassId, ClassId) {
        let mut h = Hierarchy::new();
        let a = h.add_class("A", None).unwrap();
        let b = h.add_class("B", Some(a)).unwrap();
        let c = h.add_class("C", Some(a)).unwrap();
        let d = h.add_class("D", Some(b)).unwrap();
        h.seal();
        (h, a, b, c, d)
    }

    #[test]
    fn root_exists() {
        let h = Hierarchy::new();
        assert_eq!(h.name(h.root()), "Object");
        assert_eq!(h.len(), 1);
        assert!(h.is_empty());
    }

    #[test]
    fn subtype_reflexive_and_transitive() {
        let (h, a, b, _c, d) = sample();
        assert!(h.is_subtype(a, a));
        assert!(h.is_subtype(b, a));
        assert!(h.is_subtype(d, a));
        assert!(h.is_subtype(d, b));
        assert!(h.is_subtype(a, h.root()));
    }

    #[test]
    fn subtype_rejects_siblings_and_reverse() {
        let (h, a, b, c, d) = sample();
        assert!(!h.is_subtype(a, b));
        assert!(!h.is_subtype(b, c));
        assert!(!h.is_subtype(c, d));
        assert!(!h.is_subtype(h.root(), a));
    }

    #[test]
    fn cone_contains_all_descendants() {
        let (h, a, b, c, d) = sample();
        assert_eq!(h.cone(a), vec![a, b, c, d]);
        assert_eq!(h.cone(b), vec![b, d]);
        assert_eq!(h.cone(c), vec![c]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut h = Hierarchy::new();
        h.add_class("A", None).unwrap();
        assert_eq!(
            h.add_class("A", None),
            Err(HierarchyError::DuplicateClass("A".to_owned()))
        );
    }

    #[test]
    fn sealed_rejects_additions() {
        let mut h = Hierarchy::new();
        h.seal();
        assert_eq!(h.add_class("X", None), Err(HierarchyError::Sealed));
        assert!(h.is_sealed());
    }

    #[test]
    fn find_by_name() {
        let (h, a, ..) = sample();
        assert_eq!(h.find("A"), Some(a));
        assert_eq!(h.find("Nope"), None);
    }
}
