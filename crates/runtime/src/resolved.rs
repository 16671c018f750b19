//! The resolved form of a MiniMPI program: what [`crate::Interp`] executes.
//!
//! Built once per interpreter from `(&Program, &StaticInfo)` in time linear
//! in the program and its site map, so interpreting a rank never hashes a
//! name or a site key:
//!
//! - Variables become frame-slot indices. Scopes are lexical and a block's
//!   statements run in order, so the binding each name refers to is known
//!   statically. Sibling blocks reuse slots; a frame holds as many slots as
//!   its function has bindings live at once.
//! - User callees become function indices.
//! - Instrumentation sites become one table per call path, indexed by AST
//!   node id ([`Sites`]).
//!
//! Names the checker rejects (undefined variables or functions, arity
//! mismatches) resolve to nodes that fail with the tree-walker's message at
//! the step where it failed, so unchecked programs behave as before.

use cypress_cst::sitemap::{CallAction, PathId, SiteMap};
use cypress_cst::tree::{Arm, Gid};
use cypress_minilang::ast::{self, BinOp, Builtin, Callee, ExprKind, NodeId, StmtKind, UnOp};
use std::collections::HashMap;

/// Index of a variable in its function's frame.
pub(crate) type Slot = u32;

pub(crate) type Block = Box<[Stmt]>;

pub(crate) enum Stmt {
    /// `let` or assignment to a binding in scope.
    Store {
        slot: Slot,
        value: Expr,
    },
    /// Assignment to a name with no binding in scope.
    StoreUndefined {
        name: Box<str>,
        value: Expr,
    },
    Expr(Expr),
    Return(Option<Expr>),
    If {
        id: NodeId,
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    For {
        id: NodeId,
        var: Slot,
        start: Expr,
        end: Expr,
        step: Option<Expr>,
        body: Block,
    },
    While {
        id: NodeId,
        cond: Expr,
        body: Block,
    },
}

pub(crate) enum Expr {
    Int(i64),
    Bool(bool),
    Var(Slot),
    /// A variable with no binding in scope.
    Undefined(Box<str>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<(Expr, Expr)>),
    Builtin {
        id: NodeId,
        op: Builtin,
        args: Box<[Expr]>,
    },
    Call(Box<UserCall>),
}

pub(crate) struct UserCall {
    pub id: NodeId,
    /// Callee function index, or the error the call raises once its
    /// arguments are evaluated.
    pub callee: Result<usize, String>,
    pub args: Box<[Expr]>,
}

pub(crate) struct Func {
    /// Frame size; the arguments occupy the first slots.
    pub nslots: usize,
    pub body: Block,
}

/// A whole resolved program.
pub(crate) struct Code {
    /// Indexed like `Program::funcs`, plus the entry frame of a `main` that
    /// declares parameters (see [`Code::resolve`]).
    pub funcs: Vec<Func>,
    pub main: Option<usize>,
    pub sites: Sites,
}

impl Code {
    pub(crate) fn resolve(prog: &ast::Program, sitemap: &SiteMap) -> Code {
        // First definition wins, as in `Program::func_index`.
        let mut by_name: HashMap<&str, usize> = HashMap::new();
        for (i, f) in prog.funcs.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_insert(i);
        }
        let func = |params: &[String], body: &ast::Block| {
            let mut r = FuncResolver {
                prog,
                by_name: &by_name,
                names: Vec::new(),
                next: 0,
                nslots: 0,
            };
            for p in params {
                r.declare(p);
            }
            let body = r.block(body);
            Func {
                nslots: r.nslots as usize,
                body,
            }
        };
        let mut funcs: Vec<Func> = prog
            .funcs
            .iter()
            .map(|f| func(&f.params, &f.body))
            .collect();
        let mut main = by_name.get("main").copied();
        // `run` passes `main` no arguments, so the parameters of a `main`
        // that declares some (which the checker rejects) stay unbound.
        if let Some(m) = main.filter(|&m| !prog.funcs[m].params.is_empty()) {
            funcs.push(func(&[], &prog.funcs[m].body));
            main = Some(funcs.len() - 1);
        }
        Code {
            funcs,
            main,
            sites: Sites::new(sitemap),
        }
    }
}

struct FuncResolver<'p, 'r> {
    prog: &'p ast::Program,
    by_name: &'r HashMap<&'p str, usize>,
    /// Bindings in scope, innermost last.
    names: Vec<(&'p str, Slot)>,
    /// First free slot.
    next: Slot,
    nslots: Slot,
}

impl<'p> FuncResolver<'p, '_> {
    fn declare(&mut self, name: &'p str) -> Slot {
        let slot = self.next;
        self.next += 1;
        self.nslots = self.nslots.max(self.next);
        self.names.push((name, slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.names
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, slot)| slot)
    }

    /// Run `f` in a fresh scope; its bindings and slots are released after.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let (names, next) = (self.names.len(), self.next);
        let out = f(self);
        self.names.truncate(names);
        self.next = next;
        out
    }

    fn block(&mut self, b: &'p ast::Block) -> Block {
        self.scoped(|r| r.stmts(&b.stmts))
    }

    fn stmts(&mut self, stmts: &'p [ast::Stmt]) -> Block {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'p ast::Stmt) -> Stmt {
        match &s.kind {
            StmtKind::Let { name, init } => {
                // The initializer sees the bindings from before the `let`.
                let value = self.expr(init);
                Stmt::Store {
                    slot: self.declare(name),
                    value,
                }
            }
            StmtKind::Assign { name, value } => {
                let value = self.expr(value);
                match self.lookup(name) {
                    Some(slot) => Stmt::Store { slot, value },
                    None => Stmt::StoreUndefined {
                        name: name.as_str().into(),
                        value,
                    },
                }
            }
            StmtKind::Expr { expr } => Stmt::Expr(self.expr(expr)),
            StmtKind::Return { value } => Stmt::Return(value.as_ref().map(|e| self.expr(e))),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => Stmt::If {
                id: s.id,
                cond: self.expr(cond),
                then_blk: self.block(then_blk),
                else_blk: else_blk.as_ref().map(|b| self.block(b)),
            },
            StmtKind::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = self.expr(start);
                let end = self.expr(end);
                let step = step.as_ref().map(|e| self.expr(e));
                // One scope per iteration holds the loop variable and the
                // body's own bindings.
                let (var, body) = self.scoped(|r| (r.declare(var), r.stmts(&body.stmts)));
                Stmt::For {
                    id: s.id,
                    var,
                    start,
                    end,
                    step,
                    body,
                }
            }
            StmtKind::While { cond, body } => Stmt::While {
                id: s.id,
                cond: self.expr(cond),
                body: self.block(body),
            },
        }
    }

    fn expr(&mut self, e: &'p ast::Expr) -> Expr {
        match &e.kind {
            ExprKind::Int(v) => Expr::Int(*v),
            ExprKind::Bool(v) => Expr::Bool(*v),
            ExprKind::Var(name) => match self.lookup(name) {
                Some(slot) => Expr::Var(slot),
                None => Expr::Undefined(name.as_str().into()),
            },
            ExprKind::Unary(op, inner) => Expr::Unary(*op, Box::new(self.expr(inner))),
            ExprKind::Binary(op, l, r) => Expr::Binary(*op, Box::new((self.expr(l), self.expr(r)))),
            ExprKind::Call(c) => {
                let args = c.args.iter().map(|a| self.expr(a)).collect();
                match &c.callee {
                    Callee::Builtin(op) => Expr::Builtin {
                        id: e.id,
                        op: *op,
                        args,
                    },
                    Callee::User(name) => Expr::Call(Box::new(UserCall {
                        id: e.id,
                        callee: self.callee(name, c.args.len()),
                        args,
                    })),
                }
            }
        }
    }

    fn callee(&self, name: &str, nargs: usize) -> Result<usize, String> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| format!("call to undefined `{name}`"))?;
        if self.prog.funcs[idx].params.len() != nargs {
            return Err(format!("arity mismatch calling `{name}`"));
        }
        Ok(idx)
    }
}

/// Everything the site map records for one AST node on one call path.
/// Parsed programs give every node one kind, so one `gid` field serves
/// loops, MPI leaves and `then` arms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    /// Loop GID of a `for`/`while`, leaf GID of an MPI call, or GID of an
    /// `if`'s then arm.
    pub gid: Option<Gid>,
    /// GID of an `if`'s else arm.
    pub else_gid: Option<Gid>,
    /// What a user-function call does.
    pub action: Option<CallAction>,
}

const NO_SITE: Site = Site {
    gid: None,
    else_gid: None,
    action: None,
};

/// [`SiteMap`] indexed by call path, then by node id relative to the
/// lowest node instrumented on that path. A path's nodes all belong to the
/// function it runs, so each table spans about one function body.
#[derive(Debug)]
pub(crate) struct Sites {
    paths: Vec<PathSites>,
}

#[derive(Debug, Default)]
struct PathSites {
    lo: u32,
    sites: Vec<Site>,
}

impl Sites {
    fn new(map: &SiteMap) -> Sites {
        let keys = map
            .loops
            .keys()
            .chain(map.mpi.keys())
            .chain(map.actions.keys())
            .copied()
            .chain(map.branches.keys().map(|&(p, n, _)| (p, n)));
        // Node range per path.
        let mut ranges: Vec<Option<(u32, u32)>> = Vec::new();
        for (p, n) in keys {
            let p = p.0 as usize;
            if p >= ranges.len() {
                ranges.resize(p + 1, None);
            }
            let r = ranges[p].get_or_insert((n.0, n.0));
            *r = (r.0.min(n.0), r.1.max(n.0));
        }
        let mut sites = Sites {
            paths: ranges
                .into_iter()
                .map(|r| match r {
                    Some((lo, hi)) => PathSites {
                        lo,
                        sites: vec![NO_SITE; (hi - lo) as usize + 1],
                    },
                    None => PathSites::default(),
                })
                .collect(),
        };
        for (&(p, n), &g) in &map.loops {
            sites.slot(p, n).gid = Some(g);
        }
        for (&(p, n), &g) in &map.mpi {
            sites.slot(p, n).gid = Some(g);
        }
        for (&(p, n, arm), &g) in &map.branches {
            let site = sites.slot(p, n);
            match arm {
                Arm::Then => site.gid = Some(g),
                Arm::Else => site.else_gid = Some(g),
            }
        }
        for (&(p, n), &a) in &map.actions {
            sites.slot(p, n).action = Some(a);
        }
        sites
    }

    fn slot(&mut self, path: PathId, node: NodeId) -> &mut Site {
        let t = &mut self.paths[path.0 as usize];
        &mut t.sites[(node.0 - t.lo) as usize]
    }

    /// The site of `node` on `path`; empty when nothing is instrumented.
    #[inline]
    pub(crate) fn get(&self, path: PathId, node: NodeId) -> &Site {
        match self.paths.get(path.0 as usize) {
            Some(t) => t
                .sites
                .get(node.0.wrapping_sub(t.lo) as usize)
                .unwrap_or(&NO_SITE),
            None => &NO_SITE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};

    fn compile(src: &str) -> (ast::Program, cypress_cst::StaticInfo) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        (p, info)
    }

    #[test]
    fn frames_hold_only_bindings_live_at_once() {
        let (p, info) = compile(
            "fn f(a, b) { if a > b { let c = 1; compute(c); } else { let d = 2; compute(d); } }
             fn main() { let x = 1; for i in 0..2 { let y = i; f(x, y); } let z = 3; f(z, z); }",
        );
        let code = Code::resolve(&p, &info.sitemap);
        // f: a, b plus one of c/d. main: x plus i, y; z reuses i's slot.
        assert_eq!(code.funcs[0].nslots, 3);
        assert_eq!(code.funcs[1].nslots, 3);
        assert_eq!(code.main, Some(1));
    }

    #[test]
    fn site_tables_agree_with_the_site_map() {
        let (_, info) = compile(
            r#"
            fn walk(n) { if n > 0 { bcast(0, 8); walk(n - 1); } else { barrier(); } }
            fn leaf(t) { for i in 0..t { send(0, 4, 0); } }
            fn main() {
                let k = 0;
                while k < 3 { leaf(k); k = k + 1; }
                walk(2);
                if rank() == 0 { leaf(1); }
            }
            "#,
        );
        let map = &info.sitemap;
        let sites = Sites::new(map);
        let mut checked = 0;
        for p in 0..map.n_paths + 1 {
            let path = PathId(p);
            for n in 0..200 {
                let node = NodeId(n);
                let site = sites.get(path, node);
                let gid = map.loop_gid(path, node).or(map.mpi_gid(path, node));
                assert_eq!(site.gid, gid.or(map.branch_gid(path, node, Arm::Then)));
                assert_eq!(site.else_gid, map.branch_gid(path, node, Arm::Else));
                assert_eq!(site.action, map.call_action(path, node));
                checked += site.gid.is_some() as usize + site.action.is_some() as usize;
            }
        }
        assert!(checked > 8, "only {checked} sites found");
    }
}
