//! Reference-site tables.
//!
//! A [`RefSite`] is one syntactic memory reference together with the static
//! context the analyses need: access direction, the statement it belongs to,
//! whether it executes conditionally, and the inner loops enclosing it
//! (inside the collection scope). The idempotency labels of
//! `refidem-core` are keyed by [`RefId`], i.e. by entries of this table.

use crate::affine::AffineExpr;
use crate::expr::Reference;
use crate::ids::{RefId, StmtId, VarId};
use crate::stmt::Stmt;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether a reference site reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The site loads from memory.
    Read,
    /// The site stores to memory.
    Write,
}

impl AccessKind {
    /// True for writes.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Static description of one enclosing loop of a reference site.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopContext {
    /// Statement id of the loop (used as the loop's identity when computing
    /// the common nesting prefix of two sites).
    pub stmt: StmtId,
    /// Index variable of the loop.
    pub index: VarId,
    /// Lower bound.
    pub lower: AffineExpr,
    /// Upper bound.
    pub upper: AffineExpr,
    /// Step.
    pub step: i64,
}

/// One syntactic reference site with its static context.
#[derive(Clone, Debug, PartialEq)]
pub struct RefSite {
    /// The site id (same as `reference.id`).
    pub id: RefId,
    /// Referenced variable.
    pub var: VarId,
    /// Read or write.
    pub access: AccessKind,
    /// The statement the site belongs to.
    pub stmt: StmtId,
    /// Position in the textual execution-order walk of the collection scope
    /// (right-hand-side reads precede the left-hand-side write of the same
    /// assignment).
    pub order: usize,
    /// True when the site is nested under at least one `IF` inside the
    /// collection scope, i.e. it may not execute on every path.
    pub conditional: bool,
    /// Inner loops enclosing the site inside the collection scope, outermost
    /// first. The region loop itself is *not* included.
    pub loops: Vec<LoopContext>,
    /// The reference expression itself (variable + subscripts).
    pub reference: Reference,
}

impl RefSite {
    /// True when every subscript is affine, so the address is statically
    /// analyzable ("address-precise", Section 4.2.2).
    pub fn is_address_precise(&self) -> bool {
        self.reference.is_address_precise()
    }
}

/// The table of all reference sites of a scope (usually a region body).
///
/// The contents are shared copy-on-write: `clone` bumps reference counts
/// (a cached region analysis is cloned on every cache hit), and
/// [`push`](Self::push) copies only a table that is still shared.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefTable {
    sites: Arc<Vec<RefSite>>,
    by_id: Arc<BTreeMap<RefId, usize>>,
}

impl RefTable {
    /// Collects every reference site in `stmts` (a region body or a whole
    /// procedure body), in textual execution order.
    pub fn collect(stmts: &[Stmt]) -> Self {
        let mut table = RefTable::default();
        let mut walker = Walker {
            table: &mut table,
            conditional_depth: 0,
            loops: Vec::new(),
            order: 0,
        };
        walker.walk_stmts(stmts);
        table
    }

    /// Adds a site (used by the walker and by tests constructing tables by
    /// hand).
    pub fn push(&mut self, site: RefSite) {
        Arc::make_mut(&mut self.by_id).insert(site.id, self.sites.len());
        Arc::make_mut(&mut self.sites).push(site);
    }

    /// All sites in collection order.
    pub fn sites(&self) -> &[RefSite] {
        &self.sites
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Looks a site up by id.
    pub fn get(&self, id: RefId) -> Option<&RefSite> {
        self.by_id.get(&id).map(|&i| &self.sites[i])
    }

    /// All sites referencing `var`.
    pub fn sites_of(&self, var: VarId) -> impl Iterator<Item = &RefSite> {
        self.sites.iter().filter(move |s| s.var == var)
    }

    /// Distinct data variables referenced by the table.
    pub fn referenced_vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.sites.iter().map(|s| s.var).collect();
        vars.sort();
        vars.dedup();
        vars
    }
}

struct Walker<'t> {
    table: &'t mut RefTable,
    conditional_depth: usize,
    loops: Vec<LoopContext>,
    order: usize,
}

impl Walker<'_> {
    fn walk_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn record(&mut self, r: &Reference, access: AccessKind, stmt: StmtId) {
        let site = RefSite {
            id: r.id,
            var: r.var,
            access,
            stmt,
            order: self.order,
            conditional: self.conditional_depth > 0,
            loops: self.loops.clone(),
            reference: r.clone(),
        };
        self.order += 1;
        self.table.push(site);
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(a) => {
                let mut reads = Vec::new();
                a.rhs.for_each_read(&mut |r| reads.push(r));
                for r in reads {
                    self.record(r, AccessKind::Read, a.id);
                }
                for inner in a.lhs.indirect_reads() {
                    self.record(inner, AccessKind::Read, a.id);
                }
                self.record(&a.lhs, AccessKind::Write, a.id);
            }
            Stmt::If(i) => {
                let mut reads = Vec::new();
                i.cond.for_each_read(&mut |r| reads.push(r));
                for r in reads {
                    self.record(r, AccessKind::Read, i.id);
                }
                self.conditional_depth += 1;
                self.walk_stmts(&i.then_branch);
                self.walk_stmts(&i.else_branch);
                self.conditional_depth -= 1;
            }
            Stmt::Loop(l) => {
                self.loops.push(LoopContext {
                    stmt: l.id,
                    index: l.index,
                    lower: l.lower.clone(),
                    upper: l.upper.clone(),
                    step: l.step,
                });
                // A WHILE condition is evaluated before every iteration; its
                // reads belong to the loop statement, and the body becomes
                // conditional (it may run zero times).
                if let Some(c) = &l.while_cond {
                    let mut reads = Vec::new();
                    c.for_each_read(&mut |r| reads.push(r));
                    for r in reads {
                        self.record(r, AccessKind::Read, l.id);
                    }
                    self.conditional_depth += 1;
                    self.walk_stmts(&l.body);
                    self.conditional_depth -= 1;
                } else {
                    self.walk_stmts(&l.body);
                }
                self.loops.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr, Subscript};
    use crate::stmt::{Assign, IfStmt, LoopStmt};

    fn sref(id: u32, var: u32) -> Reference {
        Reference {
            id: RefId(id),
            var: VarId(var),
            subs: vec![],
        }
    }

    #[test]
    fn collection_records_context() {
        // do i = 1, 5
        //   if (a) then
        //     b = c + b
        //   endif
        // enddo
        let i_var = VarId(10);
        let body = vec![Stmt::Loop(LoopStmt {
            id: StmtId(0),
            label: None,
            index: i_var,
            lower: AffineExpr::constant(1),
            upper: AffineExpr::constant(5),
            step: 1,
            while_cond: None,
            body: vec![Stmt::If(IfStmt {
                id: StmtId(1),
                cond: Expr::Load(sref(0, 0)), // a
                then_branch: vec![Stmt::Assign(Assign {
                    id: StmtId(2),
                    lhs: sref(3, 1), // b =
                    rhs: Expr::bin(BinOp::Add, Expr::Load(sref(1, 2)), Expr::Load(sref(2, 1))),
                })],
                else_branch: vec![],
            })],
        })];
        let table = RefTable::collect(&body);
        assert_eq!(table.len(), 4);
        // The IF condition read is unconditional but inside the loop.
        let cond_site = table.get(RefId(0)).unwrap();
        assert!(!cond_site.conditional);
        assert_eq!(cond_site.loops.len(), 1);
        assert_eq!(cond_site.loops[0].index, i_var);
        // The body write is conditional.
        let write_site = table.get(RefId(3)).unwrap();
        assert!(write_site.conditional);
        assert_eq!(write_site.access, AccessKind::Write);
        // Reads precede the write in order.
        assert!(table.get(RefId(1)).unwrap().order < write_site.order);
        assert_eq!(table.referenced_vars(), vec![VarId(0), VarId(1), VarId(2)]);
        assert_eq!(table.sites_of(VarId(1)).count(), 2);
    }

    #[test]
    fn indirect_subscript_reads_are_collected() {
        // K(E) = F
        let stmt = Stmt::Assign(Assign {
            id: StmtId(0),
            lhs: Reference {
                id: RefId(0),
                var: VarId(5),
                subs: vec![Subscript::Indirect(Box::new(sref(1, 6)))],
            },
            rhs: Expr::Load(sref(2, 7)),
        });
        let table = RefTable::collect(std::slice::from_ref(&stmt));
        assert_eq!(table.len(), 3);
        let write = table.get(RefId(0)).unwrap();
        assert!(!write.is_address_precise());
        assert_eq!(write.access, AccessKind::Write);
        assert_eq!(table.get(RefId(1)).unwrap().access, AccessKind::Read);
    }
}
