//! The declaration pass: classes, fields, statics and method signatures.

use std::collections::HashMap;

use dynsum_pag::{ClassId, MethodId, PagBuilder, VarId};

use crate::ast::{Program, TypeRef};
use crate::error::CompileError;
use crate::span::Span;

/// A static type: `None` is the non-pointer `int`, `Some(c)` a class
/// (array types are registered as classes named `T[]`).
pub(crate) type Ty = Option<ClassId>;

/// A resolved method signature.
#[derive(Debug, Clone)]
#[allow(dead_code)] // `is_ctor` is kept for completeness of the signature record
pub(crate) struct MethodSym {
    /// PAG method id.
    pub id: MethodId,
    /// Declaring class.
    pub owner: ClassId,
    /// `static` flag.
    pub is_static: bool,
    /// Constructor flag.
    pub is_ctor: bool,
    /// Parameter names and types (excluding `this`).
    pub params: Vec<(String, Ty)>,
    /// Return type (`None` for `void`/`int` — no pointer flows out).
    pub ret: Ty,
    /// `true` when the declared return type is a pointer type.
    pub returns_pointer: bool,
    /// AST coordinates: `(class index, method index)` in the program.
    pub ast: (usize, usize),
}

/// Symbol tables produced by the declaration pass and consumed by
/// lowering and call-graph construction.
#[derive(Debug)]
pub(crate) struct Symbols {
    /// The PAG under construction (classes, globals and methods are
    /// already declared in it); classes resolve by name through
    /// [`PagBuilder::find_class`].
    pub builder: PagBuilder,
    /// Instance fields declared *directly at* a class.
    pub fields: HashMap<(ClassId, String), Ty>,
    /// Static fields (globals), declared directly at a class.
    pub statics: HashMap<(ClassId, String), (VarId, Ty)>,
    /// Methods declared directly at a class (constructors under
    /// `<init>`).
    pub methods: HashMap<(ClassId, String), MethodSym>,
    /// Element type of each array class.
    pub elem_of: HashMap<ClassId, Ty>,
    /// The auto-registered `String` class.
    pub string_class: ClassId,
}

impl Symbols {
    /// Runs the declaration pass over a parsed program.
    pub fn declare(program: &Program) -> Result<Symbols, CompileError> {
        let mut builder = PagBuilder::new();

        // Register classes topologically (supers first); detect unknown
        // supers and inheritance cycles.
        let mut remaining: Vec<usize> = (0..program.classes.len()).collect();
        loop {
            let before = remaining.len();
            remaining.retain(|&ci| {
                let c = &program.classes[ci];
                let sup_name = c.superclass.as_deref().unwrap_or("Object");
                match builder.find_class(sup_name) {
                    Some(sup) => {
                        // Duplicate class names surface here as an error,
                        // reported below via re-check.
                        let _ = builder.add_class(&c.name, Some(sup));
                        false
                    }
                    None => true,
                }
            });
            if remaining.is_empty() {
                break;
            }
            if remaining.len() == before {
                let c = &program.classes[remaining[0]];
                return Err(CompileError::new(
                    c.span,
                    format!(
                        "class `{}` extends unknown or cyclic superclass `{}`",
                        c.name,
                        c.superclass.as_deref().unwrap_or("Object")
                    ),
                ));
            }
        }
        // Re-check duplicates (add_class silently skipped them above).
        {
            let mut seen = HashMap::new();
            for c in &program.classes {
                if let Some(_prev) = seen.insert(c.name.clone(), ()) {
                    return Err(CompileError::new(
                        c.span,
                        format!("duplicate class `{}`", c.name),
                    ));
                }
            }
        }

        let string_class = match builder.find_class("String") {
            Some(c) => c,
            None => builder
                .add_class("String", None)
                .expect("String cannot collide here"),
        };

        let mut syms = Symbols {
            builder,
            fields: HashMap::new(),
            statics: HashMap::new(),
            methods: HashMap::new(),
            elem_of: HashMap::new(),
            string_class,
        };

        for (ci, c) in program.classes.iter().enumerate() {
            let cid = syms
                .builder
                .find_class(&c.name)
                .expect("every program class is registered above");
            for f in &c.fields {
                let ty = syms.resolve_ty(&f.ty)?;
                if syms.fields.insert((cid, f.name.clone()), ty).is_some() {
                    return Err(CompileError::new(
                        f.span,
                        format!("duplicate field `{}` in class `{}`", f.name, c.name),
                    ));
                }
            }
            for f in &c.statics {
                let ty = syms.resolve_ty(&f.ty)?;
                let gname = format!("{}.{}", c.name, f.name);
                let var = syms
                    .builder
                    .add_global(&gname, ty)
                    .map_err(|e| CompileError::new(f.span, e.to_string()))?;
                if syms
                    .statics
                    .insert((cid, f.name.clone()), (var, ty))
                    .is_some()
                {
                    return Err(CompileError::new(
                        f.span,
                        format!("duplicate static field `{}` in class `{}`", f.name, c.name),
                    ));
                }
            }
            for (mi, m) in c.methods.iter().enumerate() {
                let key_name = if m.is_ctor {
                    "<init>".to_owned()
                } else {
                    m.name.clone()
                };
                let pag_name = format!("{}.{}", c.name, key_name);
                let id = syms
                    .builder
                    .add_method(&pag_name, Some(cid))
                    .map_err(|e| CompileError::new(m.span, e.to_string()))?;
                let mut params = Vec::new();
                for p in &m.params {
                    let ty = syms.resolve_ty(&p.ty)?;
                    params.push((p.name.clone(), ty));
                }
                let ret = match &m.return_type {
                    Some(t) => syms.resolve_ty(t)?,
                    None => None,
                };
                let sym = MethodSym {
                    id,
                    owner: cid,
                    is_static: m.is_static,
                    is_ctor: m.is_ctor,
                    params,
                    returns_pointer: ret.is_some(),
                    ret,
                    ast: (ci, mi),
                };
                if syms.methods.insert((cid, key_name), sym).is_some() {
                    return Err(CompileError::new(
                        m.span,
                        format!(
                            "duplicate method `{}` in class `{}` (overloading is not supported)",
                            m.name, c.name
                        ),
                    ));
                }
            }
        }
        Ok(syms)
    }

    /// Resolves a syntactic type to a [`Ty`], registering array classes
    /// on first use.
    pub fn resolve_ty(&mut self, t: &TypeRef) -> Result<Ty, CompileError> {
        let elem: Ty = if t.name == "int" {
            None
        } else {
            match self.builder.find_class(&t.name) {
                Some(c) => Some(c),
                None => {
                    return Err(CompileError::new(
                        t.span,
                        format!("unknown class `{}`", t.name),
                    ))
                }
            }
        };
        if !t.array {
            return Ok(elem);
        }
        Ok(Some(self.array_class(&t.name, elem, t.span)?))
    }

    /// The array class `T[]`, registered lazily.
    pub fn array_class(
        &mut self,
        elem_name: &str,
        elem: Ty,
        span: Span,
    ) -> Result<ClassId, CompileError> {
        let name = format!("{elem_name}[]");
        if let Some(c) = self.builder.find_class(&name) {
            return Ok(c);
        }
        let id = self
            .builder
            .add_class(&name, None)
            .map_err(|e| CompileError::new(span, e.to_string()))?;
        self.elem_of.insert(id, elem);
        Ok(id)
    }

    /// Looks an instance field up through the superclass chain.
    pub fn instance_field(&self, class: ClassId, name: &str) -> Option<Ty> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&ty) = self.fields.get(&(c, name.to_owned())) {
                return Some(ty);
            }
            cur = self.builder.hierarchy().superclass(c);
        }
        None
    }

    /// Looks a static field up through the superclass chain.
    pub fn static_field(&self, class: ClassId, name: &str) -> Option<(VarId, Ty)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(&(var, ty)) = self.statics.get(&(c, name.to_owned())) {
                return Some((var, ty));
            }
            cur = self.builder.hierarchy().superclass(c);
        }
        None
    }

    /// Resolves a method name against a class, walking the superclass
    /// chain (Java dynamic-dispatch lookup).
    pub fn lookup_method(&self, class: ClassId, name: &str) -> Option<&MethodSym> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.methods.get(&(c, name.to_owned())) {
                return Some(m);
            }
            cur = self.builder.hierarchy().superclass(c);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn declare(src: &str) -> Symbols {
        Symbols::declare(&parse(lex(src).unwrap()).unwrap()).unwrap()
    }

    fn class(s: &Symbols, name: &str) -> ClassId {
        s.builder.find_class(name).unwrap()
    }

    #[test]
    fn registers_classes_in_any_order() {
        let s = declare("class B extends A {} class A {}");
        let a = class(&s, "A");
        let b = class(&s, "B");
        assert_eq!(s.builder.hierarchy().superclass(b), Some(a));
    }

    #[test]
    fn rejects_unknown_superclass() {
        let p = parse(lex("class B extends Missing {}").unwrap()).unwrap();
        let e = Symbols::declare(&p).unwrap_err();
        assert!(e.message.contains("unknown or cyclic"));
    }

    #[test]
    fn string_is_auto_registered() {
        let s = declare("class A {}");
        assert!(s.builder.find_class("String").is_some());
    }

    #[test]
    fn fields_resolve_through_inheritance() {
        let s = declare("class A { Object f; } class B extends A {}");
        let b = class(&s, "B");
        assert_eq!(s.instance_field(b, "f"), Some(Some(class(&s, "Object"))));
        assert_eq!(s.instance_field(b, "nope"), None);
    }

    #[test]
    fn statics_become_globals() {
        let s = declare("class A { static A shared; }");
        let a = class(&s, "A");
        let (var, ty) = s.static_field(a, "shared").unwrap();
        assert_eq!(ty, Some(a));
        assert_eq!(s.builder.hierarchy().name(ty.unwrap()), "A");
        let _ = var;
    }

    #[test]
    fn method_lookup_walks_up() {
        let s = declare("class A { void m() {} } class B extends A {}");
        let b = class(&s, "B");
        let m = s.lookup_method(b, "m").unwrap();
        assert_eq!(m.owner, class(&s, "A"));
        assert!(!m.is_static);
    }

    #[test]
    fn override_shadows_super() {
        let s = declare("class A { void m() {} } class B extends A { void m() {} }");
        let b = class(&s, "B");
        assert_eq!(s.lookup_method(b, "m").unwrap().owner, b);
    }

    #[test]
    fn constructors_register_under_init() {
        let s = declare("class A { A() {} }");
        let a = class(&s, "A");
        assert!(s.methods.contains_key(&(a, "<init>".to_owned())));
    }

    #[test]
    fn array_classes_registered_lazily() {
        let mut s = declare("class A { Object[] xs; }");
        assert!(s.builder.find_class("Object[]").is_some());
        let arr = class(&s, "Object[]");
        assert_eq!(s.elem_of[&arr], Some(class(&s, "Object")));
        // int[] as well:
        let t = TypeRef {
            name: "int".into(),
            array: true,
            span: Span::default(),
        };
        let ty = s.resolve_ty(&t).unwrap();
        assert_eq!(s.elem_of[&ty.unwrap()], None);
    }

    #[test]
    fn duplicate_methods_rejected() {
        let p = parse(lex("class A { void m() {} void m() {} }").unwrap()).unwrap();
        assert!(Symbols::declare(&p)
            .unwrap_err()
            .message
            .contains("duplicate method"));
    }

    #[test]
    fn int_is_non_pointer() {
        let mut s = declare("class A {}");
        let t = TypeRef {
            name: "int".into(),
            array: false,
            span: Span::default(),
        };
        assert_eq!(s.resolve_ty(&t).unwrap(), None);
    }
}
