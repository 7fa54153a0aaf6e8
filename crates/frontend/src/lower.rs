//! Lowering: AST bodies → PAG edges + client metadata.
//!
//! Lowering is flow-insensitive (§2): control flow only determines
//! *which* statements exist, so `if`/`while` bodies are lowered
//! unconditionally. Every method gets a `this` formal (unless static), a
//! parameter variable per formal, and a single return variable that all
//! `return` statements feed — exactly the shape the paper's PAGs have
//! (Figure 2).
//!
//! Virtual calls cannot be resolved until a call graph exists, so they
//! are collected as [`PendingCall`]s; [`crate::callgraph`] turns them
//! into `entry`/`exit` edges under CHA or on-the-fly resolution.

use std::collections::HashMap;

use dynsum_pag::{
    CallSiteId, CastSite, ClassId, DerefSite, FactoryCandidate, MethodId, ProgramInfo, VarId,
};

use crate::ast::{ClassDecl, Expr, MethodDecl, Program, Stmt};
use crate::error::CompileError;
use crate::span::Span;
use crate::symbols::{MethodSym, Symbols, Ty};

/// A virtual call awaiting call-graph resolution.
#[derive(Debug, Clone)]
#[allow(dead_code)] // `caller` documents the site; recursion marking reads it from the PAG
pub(crate) struct PendingCall {
    /// The call site.
    pub site: CallSiteId,
    /// The calling method.
    pub caller: MethodId,
    /// Receiver variable (the dispatch is on its points-to set).
    pub recv: VarId,
    /// Static class of the receiver.
    pub static_class: ClassId,
    /// Method name.
    pub method: String,
    /// Pointer arguments (by position; `None` for non-pointer args).
    pub args: Vec<Option<VarId>>,
    /// Caller-side destination for the return value, if any.
    pub dst: Option<VarId>,
}

/// Result of lowering a whole program.
pub(crate) struct Lowered {
    /// Symbol tables (including the PAG builder with all local edges and
    /// all static-call edges already added).
    pub syms: Symbols,
    /// Virtual calls to resolve.
    pub pending: Vec<PendingCall>,
    /// Already-resolved call edges `(site, caller, callee)` — static
    /// calls and constructor invocations — needed for recursion
    /// detection.
    pub resolved_calls: Vec<(CallSiteId, MethodId, MethodId)>,
    /// Client metadata.
    pub info: ProgramInfo,
}

/// Lowers all method bodies.
pub(crate) fn lower(program: &Program, syms: Symbols) -> Result<Lowered, CompileError> {
    let mut lw = Lowerer {
        syms,
        pending: Vec::new(),
        resolved_calls: Vec::new(),
        info: ProgramInfo::default(),
        temp_counter: 0,
        site_counter: 0,
        obj_counter: 0,
    };

    // Collect method symbols up front: lowering needs `&mut self`.
    let mut todo: Vec<MethodSym> = lw.syms.methods.values().cloned().collect();
    todo.sort_by_key(|m| m.id);

    // Pass A: create every method's shell (this/params/ret variables) so
    // calls to not-yet-lowered methods can reference their formals.
    for sym in &todo {
        let (ci, mi) = sym.ast;
        let decl = &program.classes[ci].methods[mi];
        lw.declare_shell(decl, sym)?;
    }

    // Pass B: lower the bodies.
    for sym in &todo {
        let (ci, mi) = sym.ast;
        let class = &program.classes[ci];
        let decl = &class.methods[mi];
        lw.lower_method(class, decl, sym)?;
    }

    // Entry point: a static `main` anywhere (first match by class order).
    for c in &program.classes {
        if let Some(cid) = lw.syms.builder.find_class(&c.name) {
            if let Some(m) = lw.syms.methods.get(&(cid, "main".to_owned())) {
                if m.is_static {
                    lw.info.entry = Some(m.id);
                    break;
                }
            }
        }
    }

    Ok(Lowered {
        syms: lw.syms,
        pending: lw.pending,
        resolved_calls: lw.resolved_calls,
        info: lw.info,
    })
}

struct Lowerer {
    syms: Symbols,
    pending: Vec<PendingCall>,
    resolved_calls: Vec<(CallSiteId, MethodId, MethodId)>,
    info: ProgramInfo,
    temp_counter: usize,
    site_counter: usize,
    obj_counter: usize,
}

/// Per-method lowering state.
struct MethodCx {
    method: MethodId,
    method_name: String,
    owner: ClassId,
    this: Option<VarId>,
    ret: Option<VarId>,
    scopes: Vec<HashMap<String, (VarId, Ty)>>,
}

impl MethodCx {
    fn lookup(&self, name: &str) -> Option<(VarId, Ty)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }
}

/// A lowered expression value: the variable holding it (pointers only)
/// and its static type.
type Value = Option<(VarId, Ty)>;

impl Lowerer {
    fn err(span: Span, msg: impl Into<String>) -> CompileError {
        CompileError::new(span, msg)
    }

    fn loc(&self, cx: &MethodCx, span: Span) -> String {
        format!("{}:{}", cx.method_name, span)
    }

    fn fresh_temp(&mut self, cx: &MethodCx, ty: Ty, span: Span) -> Result<VarId, CompileError> {
        let name = format!("{}#t{}", cx.method_name, self.temp_counter);
        self.temp_counter += 1;
        self.syms
            .builder
            .add_local(&name, cx.method, ty)
            .map_err(|e| Self::err(span, e.to_string()))
    }

    fn fresh_site(&mut self, cx: &MethodCx, span: Span) -> Result<CallSiteId, CompileError> {
        let label = format!("{}@{}", self.site_counter, span);
        self.site_counter += 1;
        self.syms
            .builder
            .add_call_site(&label, cx.method)
            .map_err(|e| Self::err(span, e.to_string()))
    }

    // ---- method shells ------------------------------------------------------

    /// Creates the `this`, parameter and return variables of a method.
    fn declare_shell(&mut self, decl: &MethodDecl, sym: &MethodSym) -> Result<(), CompileError> {
        let method_name = self.method_pag_name(sym.id);
        if !sym.is_static {
            self.syms
                .builder
                .add_local(&format!("{method_name}#this"), sym.id, Some(sym.owner))
                .map_err(|e| Self::err(decl.span, e.to_string()))?;
        }
        for (i, p) in decl.params.iter().enumerate() {
            let ty = sym.params[i].1;
            self.syms
                .builder
                .add_local(&format!("{method_name}#{}", p.name), sym.id, ty)
                .map_err(|e| Self::err(p.span, e.to_string()))?;
        }
        if sym.returns_pointer {
            let ret = self
                .syms
                .builder
                .add_local(&format!("{method_name}#ret"), sym.id, sym.ret)
                .map_err(|e| Self::err(decl.span, e.to_string()))?;
            self.info.factories.push(FactoryCandidate {
                method: sym.id,
                ret,
            });
        }
        Ok(())
    }

    fn lower_method(
        &mut self,
        _class: &ClassDecl,
        decl: &MethodDecl,
        sym: &MethodSym,
    ) -> Result<(), CompileError> {
        let method_name = self.method_pag_name(sym.id);

        let mut cx = MethodCx {
            method: sym.id,
            method_name: method_name.clone(),
            owner: sym.owner,
            this: self.syms.builder.find_var(&format!("{method_name}#this")),
            ret: self.syms.builder.find_var(&format!("{method_name}#ret")),
            scopes: vec![HashMap::new()],
        };
        for (i, p) in decl.params.iter().enumerate() {
            let ty = sym.params[i].1;
            let var = self
                .syms
                .builder
                .find_var(&format!("{method_name}#{}", p.name))
                .expect("shell pass declared every parameter");
            cx.scopes[0].insert(p.name.clone(), (var, ty));
        }

        self.lower_block(&mut cx, &decl.body)?;
        Ok(())
    }

    // ---- statements -----------------------------------------------------------

    fn lower_block(&mut self, cx: &mut MethodCx, stmts: &[Stmt]) -> Result<(), CompileError> {
        cx.scopes.push(HashMap::new());
        for s in stmts {
            self.lower_stmt(cx, s)?;
        }
        cx.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, cx: &mut MethodCx, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                let rty = self.syms.resolve_ty(ty)?;
                if cx.scopes.last().unwrap().contains_key(name) {
                    return Err(Self::err(
                        *span,
                        format!("variable `{name}` is already declared in this scope"),
                    ));
                }
                let suffix = if cx.lookup(name).is_some() {
                    format!("${}", self.temp_counter)
                } else {
                    String::new()
                };
                let var = self
                    .syms
                    .builder
                    .add_local(
                        &format!("{}#{}{}", cx.method_name, name, suffix),
                        cx.method,
                        rty,
                    )
                    .map_err(|e| Self::err(*span, e.to_string()))?;
                self.temp_counter += 1;
                cx.scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), (var, rty));
                if let Some(e) = init {
                    let v = self.lower_expr(cx, e)?;
                    self.assign_into(cx, var, v, *span)?;
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                span,
            } => self.lower_assign(cx, target, value, *span),
            Stmt::Expr(e) => {
                self.lower_expr(cx, e)?;
                Ok(())
            }
            Stmt::Return { value, span } => {
                if let Some(e) = value {
                    let v = self.lower_expr(cx, e)?;
                    if let Some(ret) = cx.ret {
                        self.assign_into(cx, ret, v, *span)?;
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.lower_expr(cx, cond)?;
                self.lower_block(cx, then_branch)?;
                self.lower_block(cx, else_branch)?;
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                self.lower_expr(cx, cond)?;
                self.lower_block(cx, body)?;
                Ok(())
            }
        }
    }

    /// `dst = value` when the value is a pointer; non-pointer values add
    /// no edges.
    fn assign_into(
        &mut self,
        _cx: &MethodCx,
        dst: VarId,
        value: Value,
        span: Span,
    ) -> Result<(), CompileError> {
        if let Some((src, _)) = value {
            self.syms
                .builder
                .add_assign(src, dst)
                .map_err(|e| Self::err(span, e.to_string()))?;
        }
        Ok(())
    }

    fn lower_assign(
        &mut self,
        cx: &mut MethodCx,
        target: &Expr,
        value: &Expr,
        span: Span,
    ) -> Result<(), CompileError> {
        match target {
            // `x = e` — local, or implicit `this.f`, or own static.
            Expr::Name { name, span: nspan } => {
                if let Some((var, _)) = cx.lookup(name) {
                    let v = self.lower_expr(cx, value)?;
                    return self.assign_into(cx, var, v, span);
                }
                if cx.this.is_some() && self.syms.instance_field(cx.owner, name).is_some() {
                    let this = cx.this.unwrap();
                    let field = self.syms.builder.field(name);
                    let v = self.lower_expr(cx, value)?;
                    if let Some((src, _)) = v {
                        self.syms
                            .builder
                            .add_store(field, src, this)
                            .map_err(|e| Self::err(span, e.to_string()))?;
                    }
                    return Ok(());
                }
                if let Some((gvar, _)) = self.syms.static_field(cx.owner, name) {
                    let v = self.lower_expr(cx, value)?;
                    if let Some((src, _)) = v {
                        self.syms
                            .builder
                            .add_assign(src, gvar)
                            .map_err(|e| Self::err(span, e.to_string()))?;
                    }
                    return Ok(());
                }
                Err(Self::err(*nspan, format!("unknown variable `{name}`")))
            }
            // `e.f = v` — instance store, or static store `C.f = v`.
            Expr::Field {
                base,
                field,
                span: fspan,
            } => {
                if let Some((gvar, _)) = self.try_static_field(cx, base, field) {
                    let v = self.lower_expr(cx, value)?;
                    if let Some((src, _)) = v {
                        self.syms
                            .builder
                            .add_assign(src, gvar)
                            .map_err(|e| Self::err(span, e.to_string()))?;
                    }
                    return Ok(());
                }
                let Some((bvar, bty)) = self.lower_expr(cx, base)? else {
                    return Err(Self::err(*fspan, "cannot store through a non-pointer"));
                };
                self.record_deref(cx, bvar, *fspan);
                let Some(bclass) = bty else {
                    return Err(Self::err(*fspan, "cannot store through `int`"));
                };
                if self.syms.instance_field(bclass, field).is_none() {
                    return Err(Self::err(
                        *fspan,
                        format!(
                            "class `{}` has no field `{field}`",
                            self.syms.builder.hierarchy().name(bclass)
                        ),
                    ));
                }
                let fid = self.syms.builder.field(field);
                let v = self.lower_expr(cx, value)?;
                if let Some((src, _)) = v {
                    self.syms
                        .builder
                        .add_store(fid, src, bvar)
                        .map_err(|e| Self::err(span, e.to_string()))?;
                }
                Ok(())
            }
            // `a[i] = v` — array store on the collapsed `arr` field.
            Expr::Index {
                base,
                index,
                span: ispan,
            } => {
                let Some((bvar, _)) = self.lower_expr(cx, base)? else {
                    return Err(Self::err(*ispan, "cannot index a non-pointer"));
                };
                self.record_deref(cx, bvar, *ispan);
                self.lower_expr(cx, index)?;
                let arr = self.syms.builder.array_field();
                let v = self.lower_expr(cx, value)?;
                if let Some((src, _)) = v {
                    self.syms
                        .builder
                        .add_store(arr, src, bvar)
                        .map_err(|e| Self::err(span, e.to_string()))?;
                }
                Ok(())
            }
            other => Err(Self::err(
                other.span(),
                "invalid assignment target (expected a variable, field or array element)",
            )),
        }
    }

    // ---- expressions ------------------------------------------------------------

    /// When `base.field` is really `Class.static_field`, returns the
    /// global variable.
    fn try_static_field(&mut self, cx: &MethodCx, base: &Expr, field: &str) -> Option<(VarId, Ty)> {
        let Expr::Name { name, .. } = base else {
            return None;
        };
        if cx.lookup(name).is_some() {
            return None; // a local shadows the class name
        }
        let class = self.syms.builder.find_class(name)?;
        self.syms.static_field(class, field)
    }

    fn record_deref(&mut self, cx: &MethodCx, base: VarId, span: Span) {
        self.info.derefs.push(DerefSite {
            base,
            location: self.loc(cx, span),
        });
    }

    fn lower_expr(&mut self, cx: &mut MethodCx, e: &Expr) -> Result<Value, CompileError> {
        match e {
            Expr::Int { .. } => Ok(None),
            Expr::Binary { lhs, rhs, .. } => {
                self.lower_expr(cx, lhs)?;
                self.lower_expr(cx, rhs)?;
                Ok(None)
            }
            Expr::Unary { expr, .. } => {
                self.lower_expr(cx, expr)?;
                Ok(None)
            }
            Expr::This { span } => match cx.this {
                Some(v) => Ok(Some((v, Some(cx.owner)))),
                None => Err(Self::err(
                    *span,
                    "`this` is not available in a static method",
                )),
            },
            Expr::Null { span } => {
                let label = format!("null{}@{}", self.obj_counter, span);
                self.obj_counter += 1;
                let obj = self
                    .syms
                    .builder
                    .add_null_obj(&label, Some(cx.method))
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                let tmp = self.fresh_temp(cx, None, *span)?;
                self.syms
                    .builder
                    .add_new(obj, tmp)
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                Ok(Some((tmp, None)))
            }
            Expr::Str { span, .. } => {
                let label = format!("str{}@{}", self.obj_counter, span);
                self.obj_counter += 1;
                let sc = self.syms.string_class;
                let obj = self
                    .syms
                    .builder
                    .add_obj(&label, Some(sc), Some(cx.method))
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                let tmp = self.fresh_temp(cx, Some(sc), *span)?;
                self.syms
                    .builder
                    .add_new(obj, tmp)
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                Ok(Some((tmp, Some(sc))))
            }
            Expr::Name { name, span } => {
                if let Some((var, ty)) = cx.lookup(name) {
                    return Ok(Some((var, ty)));
                }
                // Implicit `this.f`.
                if let Some(this) = cx.this {
                    if let Some(fty) = self.syms.instance_field(cx.owner, name) {
                        let fid = self.syms.builder.field(name);
                        let tmp = self.fresh_temp(cx, fty, *span)?;
                        self.record_deref(cx, this, *span);
                        self.syms
                            .builder
                            .add_load(fid, this, tmp)
                            .map_err(|er| Self::err(*span, er.to_string()))?;
                        return Ok(Some((tmp, fty)));
                    }
                }
                // Own static field.
                if let Some((gvar, ty)) = self.syms.static_field(cx.owner, name) {
                    return Ok(Some((gvar, ty)));
                }
                Err(Self::err(*span, format!("unknown variable `{name}`")))
            }
            Expr::New { class, args, span } => self.lower_new(cx, class, args, *span),
            Expr::NewArray { elem, len, span } => {
                self.lower_expr(cx, len)?;
                let elem_ty: Ty = if elem == "int" {
                    None
                } else {
                    match self.syms.builder.find_class(elem) {
                        Some(c) => Some(c),
                        None => return Err(Self::err(*span, format!("unknown class `{elem}`"))),
                    }
                };
                let arr_class = self.syms.array_class(elem, elem_ty, *span)?;
                let label = format!("arr{}@{}", self.obj_counter, span);
                self.obj_counter += 1;
                let obj = self
                    .syms
                    .builder
                    .add_obj(&label, Some(arr_class), Some(cx.method))
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                let tmp = self.fresh_temp(cx, Some(arr_class), *span)?;
                self.syms
                    .builder
                    .add_new(obj, tmp)
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                Ok(Some((tmp, Some(arr_class))))
            }
            Expr::Cast { ty, expr, span } => {
                let rty = self.syms.resolve_ty(ty)?;
                let v = self.lower_expr(cx, expr)?;
                let Some(target) = rty else {
                    // (int) e: non-pointer result.
                    return Ok(None);
                };
                let tmp = self.fresh_temp(cx, Some(target), *span)?;
                if let Some((src, _)) = v {
                    self.syms
                        .builder
                        .add_assign(src, tmp)
                        .map_err(|er| Self::err(*span, er.to_string()))?;
                }
                self.info.casts.push(CastSite {
                    var: tmp,
                    target,
                    location: self.loc(cx, *span),
                });
                Ok(Some((tmp, Some(target))))
            }
            Expr::Field { base, field, span } => {
                if let Some((gvar, ty)) = self.try_static_field(cx, base, field) {
                    return Ok(Some((gvar, ty)));
                }
                let Some((bvar, bty)) = self.lower_expr(cx, base)? else {
                    return Err(Self::err(*span, "cannot load from a non-pointer"));
                };
                self.record_deref(cx, bvar, *span);
                let Some(bclass) = bty else {
                    return Err(Self::err(*span, "cannot load from `int`"));
                };
                let Some(fty) = self.syms.instance_field(bclass, field) else {
                    return Err(Self::err(
                        *span,
                        format!(
                            "class `{}` has no field `{field}`",
                            self.syms.builder.hierarchy().name(bclass)
                        ),
                    ));
                };
                let fid = self.syms.builder.field(field);
                let tmp = self.fresh_temp(cx, fty, *span)?;
                self.syms
                    .builder
                    .add_load(fid, bvar, tmp)
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                Ok(Some((tmp, fty)))
            }
            Expr::Index { base, index, span } => {
                let Some((bvar, bty)) = self.lower_expr(cx, base)? else {
                    return Err(Self::err(*span, "cannot index a non-pointer"));
                };
                self.record_deref(cx, bvar, *span);
                self.lower_expr(cx, index)?;
                let elem_ty = bty
                    .and_then(|c| self.syms.elem_of.get(&c).copied())
                    .unwrap_or(None);
                if elem_ty.is_none() {
                    // Array of int (or unknown): the load carries no
                    // pointer, but the arr field keeps flows uniform.
                }
                let arr = self.syms.builder.array_field();
                let tmp = self.fresh_temp(cx, elem_ty, *span)?;
                self.syms
                    .builder
                    .add_load(arr, bvar, tmp)
                    .map_err(|er| Self::err(*span, er.to_string()))?;
                Ok(Some((tmp, elem_ty)))
            }
            Expr::Call {
                base,
                method,
                args,
                span,
            } => self.lower_call(cx, base.as_deref(), method, args, *span),
        }
    }

    fn lower_new(
        &mut self,
        cx: &mut MethodCx,
        class: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<Value, CompileError> {
        let Some(cid) = self.syms.builder.find_class(class) else {
            return Err(Self::err(span, format!("unknown class `{class}`")));
        };
        let label = format!("o{}@{}", self.obj_counter, span);
        self.obj_counter += 1;
        let obj = self
            .syms
            .builder
            .add_obj(&label, Some(cid), Some(cx.method))
            .map_err(|e| Self::err(span, e.to_string()))?;
        let tmp = self.fresh_temp(cx, Some(cid), span)?;
        self.syms
            .builder
            .add_new(obj, tmp)
            .map_err(|e| Self::err(span, e.to_string()))?;

        // Constructor invocation (not inherited: looked up on the exact
        // class only).
        let ctor = self.syms.methods.get(&(cid, "<init>".to_owned())).cloned();
        match ctor {
            Some(ctor) => {
                if ctor.params.len() != args.len() {
                    return Err(Self::err(
                        span,
                        format!(
                            "constructor `{class}` expects {} argument(s), got {}",
                            ctor.params.len(),
                            args.len()
                        ),
                    ));
                }
                let mut arg_vars = Vec::new();
                for a in args {
                    arg_vars.push(self.lower_expr(cx, a)?);
                }
                let site = self.fresh_site(cx, span)?;
                let ctor_this = self.this_var_of(ctor.id);
                self.syms
                    .builder
                    .add_entry(site, tmp, ctor_this)
                    .map_err(|e| Self::err(span, e.to_string()))?;
                for (i, av) in arg_vars.iter().enumerate() {
                    if let Some((avar, _)) = av {
                        let formal = self.param_var_of(ctor.id, &ctor.params[i].0);
                        if let Some(formal) = formal {
                            self.syms
                                .builder
                                .add_entry(site, *avar, formal)
                                .map_err(|e| Self::err(span, e.to_string()))?;
                        }
                    }
                }
                self.resolved_calls.push((site, cx.method, ctor.id));
            }
            None => {
                if !args.is_empty() {
                    return Err(Self::err(
                        span,
                        format!("class `{class}` has no constructor but arguments were given"),
                    ));
                }
                for a in args {
                    self.lower_expr(cx, a)?;
                }
            }
        }
        Ok(Some((tmp, Some(cid))))
    }

    /// The `this` variable of a method (the shell pass created it).
    fn this_var_of(&mut self, method: MethodId) -> VarId {
        let name = format!("{}#this", self.method_pag_name(method));
        self.syms
            .builder
            .find_var(&name)
            .expect("instance methods always have a this variable")
    }

    fn param_var_of(&mut self, method: MethodId, param: &str) -> Option<VarId> {
        let name = format!("{}#{}", self.method_pag_name(method), param);
        self.syms.builder.find_var(&name)
    }

    fn ret_var_of(&mut self, method: MethodId) -> Option<VarId> {
        let name = format!("{}#ret", self.method_pag_name(method));
        self.syms.builder.find_var(&name)
    }

    fn method_pag_name(&self, method: MethodId) -> String {
        self.syms
            .builder
            .method_name(method)
            .expect("method was declared")
            .to_owned()
    }

    fn lower_call(
        &mut self,
        cx: &mut MethodCx,
        base: Option<&Expr>,
        method: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<Value, CompileError> {
        // Static call `C.m(args)`?
        if let Some(Expr::Name { name, .. }) = base {
            if cx.lookup(name).is_none() {
                if let Some(class) = self.syms.builder.find_class(name) {
                    let Some(sym) = self.syms.lookup_method(class, method).cloned() else {
                        return Err(Self::err(
                            span,
                            format!("class `{name}` has no method `{method}`"),
                        ));
                    };
                    if !sym.is_static {
                        return Err(Self::err(
                            span,
                            format!("method `{name}.{method}` is not static"),
                        ));
                    }
                    return self.emit_direct_call(cx, &sym, None, args, span);
                }
            }
        }

        // Receiver expression (explicit or implicit `this`).
        let (recv, recv_ty) = match base {
            Some(b) => {
                let Some(v) = self.lower_expr(cx, b)? else {
                    return Err(Self::err(span, "cannot call a method on a non-pointer"));
                };
                v
            }
            None => {
                // Unqualified `m(args)`: own instance method or own
                // static method.
                if let Some(sym) = self.syms.lookup_method(cx.owner, method).cloned() {
                    if sym.is_static {
                        return self.emit_direct_call(cx, &sym, None, args, span);
                    }
                }
                match cx.this {
                    Some(t) => (t, Some(cx.owner)),
                    None => {
                        return Err(Self::err(
                            span,
                            format!("cannot call instance method `{method}` from a static context"),
                        ))
                    }
                }
            }
        };
        self.record_deref(cx, recv, span);
        let Some(static_class) = recv_ty else {
            return Err(Self::err(span, "cannot call a method on `int`"));
        };
        let Some(sym) = self.syms.lookup_method(static_class, method).cloned() else {
            return Err(Self::err(
                span,
                format!(
                    "class `{}` has no method `{method}`",
                    self.syms.builder.hierarchy().name(static_class)
                ),
            ));
        };
        if sym.is_static {
            // Instance-syntax call to a static method: treat as direct.
            return self.emit_direct_call(cx, &sym, None, args, span);
        }
        if sym.params.len() != args.len() {
            return Err(Self::err(
                span,
                format!(
                    "method `{method}` expects {} argument(s), got {}",
                    sym.params.len(),
                    args.len()
                ),
            ));
        }

        let mut arg_vars = Vec::new();
        for a in args {
            arg_vars.push(self.lower_expr(cx, a)?.map(|(v, _)| v));
        }
        let dst = if sym.returns_pointer {
            Some(self.fresh_temp(cx, sym.ret, span)?)
        } else {
            None
        };
        let site = self.fresh_site(cx, span)?;
        self.pending.push(PendingCall {
            site,
            caller: cx.method,
            recv,
            static_class,
            method: method.to_owned(),
            args: arg_vars,
            dst,
        });
        Ok(dst.map(|d| (d, sym.ret)))
    }

    /// Emits entry/exit edges for a statically resolved (non-virtual)
    /// call.
    fn emit_direct_call(
        &mut self,
        cx: &mut MethodCx,
        sym: &MethodSym,
        this_arg: Option<VarId>,
        args: &[Expr],
        span: Span,
    ) -> Result<Value, CompileError> {
        if sym.params.len() != args.len() {
            return Err(Self::err(
                span,
                format!(
                    "method expects {} argument(s), got {}",
                    sym.params.len(),
                    args.len()
                ),
            ));
        }
        let mut arg_vars = Vec::new();
        for a in args {
            arg_vars.push(self.lower_expr(cx, a)?);
        }
        let site = self.fresh_site(cx, span)?;
        if let Some(t) = this_arg {
            let callee_this = self.this_var_of(sym.id);
            self.syms
                .builder
                .add_entry(site, t, callee_this)
                .map_err(|e| Self::err(span, e.to_string()))?;
        }
        for (i, av) in arg_vars.iter().enumerate() {
            if let Some((avar, _)) = av {
                if let Some(formal) = self.param_var_of(sym.id, &sym.params[i].0) {
                    self.syms
                        .builder
                        .add_entry(site, *avar, formal)
                        .map_err(|e| Self::err(span, e.to_string()))?;
                }
            }
        }
        let dst = if sym.returns_pointer {
            let d = self.fresh_temp(cx, sym.ret, span)?;
            if let Some(ret) = self.ret_var_of(sym.id) {
                self.syms
                    .builder
                    .add_exit(site, ret, d)
                    .map_err(|e| Self::err(span, e.to_string()))?;
            }
            Some((d, sym.ret))
        } else {
            None
        };
        self.resolved_calls.push((site, cx.method, sym.id));
        Ok(dst)
    }
}
