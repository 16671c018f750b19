//! Per-rank interpreter for instrumented MiniMPI programs.
//!
//! Plays the role of the paper's "customized MPI communication library":
//! it executes one process's view of the SPMD program, emitting structure
//! enter/exit events (the `PMPI_COMM_Structure` calls) and MPI records into
//! an [`EventSink`]. Ranks interpret independently — MiniMPI control flow
//! never depends on message payloads — so tracing `P` processes is `P`
//! independent runs; message *matching* happens later in `cypress-simmpi`.
//!
//! Request handles are mapped to the GID of their posting operation
//! (paper §IV-A, Fig. 12): `wait`/`waitall` records carry the posting GIDs
//! in `params.req_gids`, which lets decompression re-pair them.
//!
//! The interpreter walks the resolved form (module `resolved`) of the
//! program, built once in [`Interp::new`]: variables are frame slots,
//! callees are function indices and instrumentation sites are array
//! lookups, so executing a statement neither hashes nor allocates.

use crate::resolved::{Code, Expr, Site, Slot, Stmt, UserCall};
use cypress_cst::sitemap::{CallAction, PathId, ROOT_PATH};
use cypress_cst::tree::Gid;
use cypress_cst::StaticInfo;
use cypress_minilang::ast::{BinOp, Builtin, NodeId, Program, UnOp};
use cypress_obs::{Counter, Gauge};
use cypress_trace::event::{Event, MpiOp, MpiParams, MpiRecord, ANY_SOURCE, NONE};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Interpreter instrumentation handles (scope `interp`), shared by all ranks.
struct InterpMetrics {
    /// Structure enter/exit + MPI events handed to the sink.
    events_emitted: Counter,
    /// High-water mark of the live request-handle → GID table.
    req_table_high_water: Gauge,
}

fn obs() -> &'static InterpMetrics {
    static M: OnceLock<InterpMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let s = cypress_obs::scope("interp");
        InterpMetrics {
            events_emitted: s.counter("events_emitted"),
            req_table_high_water: s.gauge("req_table_high_water"),
        }
    })
}

/// Runtime failure (arithmetic fault, budget exhaustion, internal error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError(pub String);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

pub type RunResult<T> = Result<T, RuntimeError>;

pub use cypress_trace::event::EventSink;

/// Interpreter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpConfig {
    /// Hard budget on executed statements+expressions, to bound runaway
    /// `while` loops (important for randomly generated programs).
    pub max_steps: u64,
    /// Virtual nanoseconds per `compute(1)` unit.
    pub ns_per_compute_unit: u64,
    /// Fixed per-operation software overhead (ns) in the local time model.
    pub op_overhead_ns: u64,
    /// Additional ns per payload byte in the local time model.
    pub ns_per_byte_x1000: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 200_000_000,
            ns_per_compute_unit: 1,
            op_overhead_ns: 1_000,
            // 0.4 ns/byte ≈ 2.5 GB/s effective local copy bandwidth.
            ns_per_byte_x1000: 400,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Int(i64),
    Bool(bool),
    Req(u64),
}

impl Value {
    fn as_int(&self) -> RunResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(RuntimeError(format!("expected int, got {other:?}"))),
        }
    }

    fn as_bool(&self) -> RunResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(RuntimeError(format!("expected bool, got {other:?}"))),
        }
    }

    fn as_req(&self) -> RunResult<u64> {
        match self {
            Value::Req(v) => Ok(*v),
            other => Err(RuntimeError(format!("expected request, got {other:?}"))),
        }
    }
}

/// Arguments a builtin takes without spilling to the heap (`sendrecv`'s
/// six; only a longer `waitall`/`waitany` spills).
const ARG_BUF: usize = 6;

/// One rank's interpreter.
pub struct Interp<'a, S: EventSink> {
    code: Arc<Code>,
    sink: &'a mut S,
    rank: i64,
    nprocs: i64,
    cfg: InterpConfig,
    /// Slots of every live frame, innermost frame last.
    slots: Vec<Value>,
    /// First slot of the executing frame.
    base: usize,
    /// Call path of the executing frame.
    path: PathId,
    /// Live MiniMPI frames.
    depth: usize,
    clock: u64,
    steps: u64,
    next_req: u64,
    /// Live request id → GID of the posting operation.
    req_gids: HashMap<u64, u32>,
    /// Recursion depth per pseudo-loop GID (for Exit-at-outermost).
    rec_depth: Vec<u32>,
    /// Monotone counter mixed into synthetic op durations.
    op_seq: u64,
    /// Events handed to the sink; `run` reports it as `interp/events_emitted`.
    emitted: u64,
    /// Most requests live at once; `run` reports it as
    /// `interp/req_table_high_water`.
    req_high_water: usize,
}

impl<'a, S: EventSink> Interp<'a, S> {
    pub fn new(
        prog: &'a Program,
        info: &'a StaticInfo,
        rank: u32,
        nprocs: u32,
        cfg: InterpConfig,
        sink: &'a mut S,
    ) -> Self {
        Interp {
            code: Arc::new(Code::resolve(prog, &info.sitemap)),
            sink,
            rank: rank as i64,
            nprocs: nprocs as i64,
            cfg,
            slots: Vec::new(),
            base: 0,
            path: ROOT_PATH,
            depth: 0,
            clock: 0,
            steps: 0,
            next_req: 1,
            req_gids: HashMap::new(),
            rec_depth: Vec::new(),
            op_seq: 0,
            emitted: 0,
            req_high_water: 0,
        }
    }

    /// Run `main` to completion; returns total virtual time (ns).
    pub fn run(&mut self) -> RunResult<u64> {
        let r = self.run_main();
        // Telemetry is flushed once per run, not per event.
        if cypress_obs::enabled() && self.emitted > 0 {
            obs().events_emitted.add(self.emitted);
            if self.req_high_water > 0 {
                obs()
                    .req_table_high_water
                    .set_max(self.req_high_water as i64);
            }
        }
        self.emitted = 0;
        r
    }

    fn run_main(&mut self) -> RunResult<u64> {
        let code = Arc::clone(&self.code);
        let main = &code.funcs[code
            .main
            .ok_or_else(|| RuntimeError("no main function".into()))?];
        self.slots.clear();
        self.slots.resize(main.nslots, Value::Int(0));
        self.base = 0;
        self.path = ROOT_PATH;
        self.depth = 1;
        self.exec_block(&main.body)?;
        self.depth = 0;
        if !self.req_gids.is_empty() {
            return Err(RuntimeError(format!(
                "{} request(s) never completed (missing wait)",
                self.req_gids.len()
            )));
        }
        Ok(self.clock)
    }

    #[inline]
    fn tick(&mut self) -> RunResult<()> {
        self.steps += 1;
        if self.steps > self.cfg.max_steps {
            return Err(RuntimeError(format!(
                "step budget of {} exhausted (runaway loop?)",
                self.cfg.max_steps
            )));
        }
        Ok(())
    }

    fn slot(&mut self, slot: Slot) -> &mut Value {
        &mut self.slots[self.base + slot as usize]
    }

    fn site(&self, node: NodeId) -> Site {
        *self.code.sites.get(self.path, node)
    }

    /// Execute a block; `Ok(Some(v))` signals a `return`.
    fn exec_block(&mut self, stmts: &[Stmt]) -> RunResult<Option<Value>> {
        for s in stmts {
            if let Some(v) = self.exec_stmt(s)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RunResult<Option<Value>> {
        self.tick()?;
        match s {
            Stmt::Store { slot, value } => {
                let v = self.eval(value)?;
                *self.slot(*slot) = v;
                Ok(None)
            }
            Stmt::StoreUndefined { name, value } => {
                self.eval(value)?;
                Err(RuntimeError(format!("assignment to undefined `{name}`")))
            }
            Stmt::Expr(expr) => {
                self.eval(expr)?;
                Ok(None)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Some(v))
            }
            Stmt::If {
                id,
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = self.eval(cond)?.as_bool()?;
                let site = self.site(*id);
                let (blk, gid) = if taken {
                    (Some(then_blk), site.gid)
                } else {
                    (else_blk.as_ref(), site.else_gid)
                };
                if let Some(g) = gid {
                    self.emit(Event::Enter { gid: g.0 });
                }
                let r = match blk {
                    Some(b) => self.exec_block(b)?,
                    None => None,
                };
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(r)
            }
            Stmt::For {
                id,
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = self.eval(start)?.as_int()?;
                let end = self.eval(end)?.as_int()?;
                let step = match step {
                    Some(e) => self.eval(e)?.as_int()?,
                    None => 1,
                };
                if step == 0 {
                    return Err(RuntimeError("`for` loop with step 0".into()));
                }
                let gid = self.site(*id).gid;
                let mut i = start;
                let mut ret = None;
                while (step > 0 && i < end) || (step < 0 && i > end) {
                    self.tick()?;
                    if let Some(g) = gid {
                        self.emit(Event::Enter { gid: g.0 });
                    }
                    // Each iteration binds a fresh loop variable.
                    *self.slot(*var) = Value::Int(i);
                    if let Some(v) = self.exec_block(body)? {
                        ret = Some(v);
                        break;
                    }
                    i += step;
                }
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(ret)
            }
            Stmt::While { id, cond, body } => {
                let gid = self.site(*id).gid;
                let mut ret = None;
                while self.eval(cond)?.as_bool()? {
                    self.tick()?;
                    if let Some(g) = gid {
                        self.emit(Event::Enter { gid: g.0 });
                    }
                    if let Some(v) = self.exec_block(body)? {
                        ret = Some(v);
                        break;
                    }
                }
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(ret)
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> RunResult<Value> {
        self.tick()?;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Bool(v) => Ok(Value::Bool(*v)),
            Expr::Var(slot) => Ok(*self.slot(*slot)),
            Expr::Undefined(name) => Err(RuntimeError(format!("undefined variable `{name}`"))),
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op {
                    UnOp::Neg => Ok(Value::Int(
                        v.as_int()?
                            .checked_neg()
                            .ok_or_else(|| RuntimeError("negation overflow".into()))?,
                    )),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            Expr::Binary(op, operands) => self.eval_binary(*op, &operands.0, &operands.1),
            Expr::Builtin { id, op, args } => self.eval_builtin(*id, *op, args),
            Expr::Call(call) => self.call_user(call),
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: &Expr, r: &Expr) -> RunResult<Value> {
        // Short-circuit logical operators.
        if op == BinOp::And {
            return Ok(Value::Bool(
                self.eval(l)?.as_bool()? && self.eval(r)?.as_bool()?,
            ));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(
                self.eval(l)?.as_bool()? || self.eval(r)?.as_bool()?,
            ));
        }
        let a = self.eval(l)?.as_int()?;
        let b = self.eval(r)?.as_int()?;
        let arith = |v: Option<i64>| {
            v.map(Value::Int)
                .ok_or_else(|| RuntimeError("integer overflow".into()))
        };
        match op {
            BinOp::Add => arith(a.checked_add(b)),
            BinOp::Sub => arith(a.checked_sub(b)),
            BinOp::Mul => arith(a.checked_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    Err(RuntimeError("division by zero".into()))
                } else {
                    arith(a.checked_div(b))
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    Err(RuntimeError("remainder by zero".into()))
                } else {
                    arith(a.checked_rem(b))
                }
            }
            BinOp::Eq => Ok(Value::Bool(a == b)),
            BinOp::Ne => Ok(Value::Bool(a != b)),
            BinOp::Lt => Ok(Value::Bool(a < b)),
            BinOp::Le => Ok(Value::Bool(a <= b)),
            BinOp::Gt => Ok(Value::Bool(a > b)),
            BinOp::Ge => Ok(Value::Bool(a >= b)),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn call_user(&mut self, call: &UserCall) -> RunResult<Value> {
        // Arguments are evaluated in the caller's frame straight into what
        // become the callee's first slots.
        let base = self.slots.len();
        for a in call.args.iter() {
            let v = self.eval(a)?;
            self.slots.push(v);
        }
        let fidx = *call
            .callee
            .as_ref()
            .map_err(|msg| RuntimeError(msg.clone()))?;
        // The interpreter recurses natively per MiniMPI frame (~a dozen
        // native frames each); the driver gives it a 64 MiB stack, which
        // comfortably fits this guard even in debug builds.
        if self.depth > 2_000 {
            return Err(RuntimeError("call stack overflow".into()));
        }

        let cur_path = self.path;
        let (new_path, enter_pseudo, exit_pseudo) = match self.site(call.id).action {
            None => (cur_path, None, None),
            Some(CallAction::Inline { path }) => (path, None, None),
            Some(CallAction::EnterRecursive { pseudo, path }) => {
                // Each invocation of a recursive function is one iteration of
                // its pseudo loop; the Exit fires when the *outermost*
                // invocation returns (tracked via rec_depth).
                (path, pseudo, pseudo)
            }
            Some(CallAction::BackCall { pseudo, path }) => (path, pseudo, None),
        };
        if let Some(g) = enter_pseudo {
            *self.rec_depth_mut(g) += 1;
            self.emit(Event::Enter { gid: g.0 });
        }

        let code = Arc::clone(&self.code);
        let func = &code.funcs[fidx];
        self.slots.resize(base + func.nslots, Value::Int(0));
        let caller_base = std::mem::replace(&mut self.base, base);
        self.path = new_path;
        self.depth += 1;
        let ret = self.exec_block(&func.body);
        self.depth -= 1;
        self.path = cur_path;
        self.base = caller_base;
        self.slots.truncate(base);
        let ret = ret?;

        if let Some(g) = enter_pseudo {
            let d = self.rec_depth_mut(g);
            *d -= 1;
            // Only the outermost EnterRecursive emits the Exit; BackCall
            // invocations (exit_pseudo == None) never do.
            if exit_pseudo.is_some() && *d == 0 {
                self.emit(Event::Exit { gid: g.0 });
            }
        }
        Ok(ret.unwrap_or(Value::Int(0)))
    }

    fn rec_depth_mut(&mut self, pseudo: Gid) -> &mut u32 {
        let i = pseudo.0 as usize;
        if i >= self.rec_depth.len() {
            self.rec_depth.resize(i + 1, 0);
        }
        &mut self.rec_depth[i]
    }

    /// Synthetic duration for an MPI operation: overhead + size term + a
    /// small deterministic jitter so merged records have non-trivial time
    /// statistics.
    fn op_duration(&mut self, bytes: i64) -> u64 {
        self.op_seq += 1;
        let jitter = {
            // xorshift of (rank, op_seq) — deterministic across runs.
            let mut x = (self.rank as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
                ^ self.op_seq.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 31;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^= x >> 29;
            x % (self.cfg.op_overhead_ns / 4 + 1)
        };
        self.cfg.op_overhead_ns + (bytes.max(0) as u64 * self.cfg.ns_per_byte_x1000) / 1000 + jitter
    }

    /// Single funnel for all sink events, so the interpreter can account for
    /// its own emission volume (`interp/events_emitted`).
    fn emit(&mut self, ev: Event) {
        self.emitted += 1;
        self.sink.event(ev);
    }

    fn record(&mut self, gid: u32, op: MpiOp, params: MpiParams) {
        let bytes = params.count.max(0) + params.rcount.max(0);
        let dur = self.op_duration(bytes);
        let rec = MpiRecord {
            gid,
            op,
            params,
            t_start: self.clock,
            dur,
        };
        self.clock += dur;
        self.emit(Event::Mpi(rec));
    }

    fn eval_builtin(&mut self, id: NodeId, b: Builtin, arg_exprs: &[Expr]) -> RunResult<Value> {
        // Evaluate arguments first (left to right), as the checker promises.
        let mut buf = [Value::Int(0); ARG_BUF];
        let mut spill = Vec::new();
        let args: &[Value] = if arg_exprs.len() <= ARG_BUF {
            for (v, a) in buf.iter_mut().zip(arg_exprs) {
                *v = self.eval(a)?;
            }
            &buf[..arg_exprs.len()]
        } else {
            for a in arg_exprs {
                spill.push(self.eval(a)?);
            }
            &spill
        };
        let int = |i: usize| -> RunResult<i64> { args[i].as_int() };
        let gid = if b.is_mpi_op() {
            self.site(id).gid.map_or(0, |g| g.0)
        } else {
            0
        };

        match b {
            Builtin::Rank => Ok(Value::Int(self.rank)),
            Builtin::Size => Ok(Value::Int(self.nprocs)),
            Builtin::AnySource => Ok(Value::Int(ANY_SOURCE)),
            Builtin::Compute => {
                let units = int(0)?.max(0) as u64;
                let base = units * self.cfg.ns_per_compute_unit;
                // Real computation phases vary run to run (cache effects, OS
                // noise); add a deterministic ±6% wobble so merged records
                // carry non-trivial gap statistics (and trace-driven
                // prediction shows realistic error, as in Fig. 21).
                self.op_seq += 1;
                let mut x = (self.rank as u64 + 17).wrapping_mul(0x9e3779b97f4a7c15)
                    ^ self.op_seq.wrapping_mul(0xd6e8feb86659fd93);
                x ^= x >> 32;
                let wobble_pct = (x % 13) as i64 - 6; // -6..=6
                let adj = (base as i128 * wobble_pct as i128 / 100) as i64;
                self.clock = self.clock.saturating_add((base as i64 + adj).max(0) as u64);
                Ok(Value::Int(0))
            }
            Builtin::Send => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_peer(dest, "send destination")?;
                self.record(gid, MpiOp::Send, MpiParams::send(dest, count, tag));
                Ok(Value::Int(0))
            }
            Builtin::Recv => {
                let (src, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_src(src)?;
                self.record(gid, MpiOp::Recv, MpiParams::recv(src, count, tag));
                Ok(Value::Int(0))
            }
            Builtin::Isend => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_peer(dest, "isend destination")?;
                let req = self.next_req;
                self.next_req += 1;
                self.req_gids.insert(req, gid);
                self.req_high_water = self.req_high_water.max(self.req_gids.len());
                self.record(gid, MpiOp::Isend, MpiParams::send(dest, count, tag));
                Ok(Value::Req(req))
            }
            Builtin::Irecv => {
                let (src, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_src(src)?;
                let req = self.next_req;
                self.next_req += 1;
                self.req_gids.insert(req, gid);
                self.req_high_water = self.req_high_water.max(self.req_gids.len());
                self.record(gid, MpiOp::Irecv, MpiParams::recv(src, count, tag));
                Ok(Value::Req(req))
            }
            Builtin::Wait => {
                let req = args[0].as_req()?;
                let post_gid = self
                    .req_gids
                    .remove(&req)
                    .ok_or_else(|| RuntimeError("wait on unknown/completed request".into()))?;
                self.record(gid, MpiOp::Wait, MpiParams::completion(vec![post_gid]));
                Ok(Value::Int(0))
            }
            Builtin::Waitall => {
                let mut gids = Vec::with_capacity(args.len());
                for a in args {
                    let req = a.as_req()?;
                    let post_gid = self.req_gids.remove(&req).ok_or_else(|| {
                        RuntimeError("waitall on unknown/completed request".into())
                    })?;
                    gids.push(post_gid);
                }
                self.record(gid, MpiOp::Waitall, MpiParams::completion(gids));
                Ok(Value::Int(0))
            }
            Builtin::Waitany => {
                // Partial completion (§IV-A): exactly one of the listed
                // requests completes. Which one is non-deterministic in real
                // MPI; this runtime deterministically completes the first
                // still-outstanding request in argument order, and the trace
                // records the completed request's posting GID so replay can
                // re-pair it.
                let mut completed = None;
                for a in args {
                    let req = a.as_req()?;
                    if let Some(post_gid) = self.req_gids.remove(&req) {
                        completed = Some(post_gid);
                        break;
                    }
                }
                let post_gid = completed
                    .ok_or_else(|| RuntimeError("waitany with no outstanding request".into()))?;
                self.record(gid, MpiOp::Waitany, MpiParams::completion(vec![post_gid]));
                Ok(Value::Int(0))
            }
            Builtin::Barrier => {
                self.record(gid, MpiOp::Barrier, MpiParams::collective(0));
                Ok(Value::Int(0))
            }
            Builtin::Bcast => {
                let (root, count) = (int(0)?, int(1)?);
                self.check_peer(root, "bcast root")?;
                self.record(gid, MpiOp::Bcast, MpiParams::rooted(root, count));
                Ok(Value::Int(0))
            }
            Builtin::Reduce => {
                let (root, count) = (int(0)?, int(1)?);
                self.check_peer(root, "reduce root")?;
                self.record(gid, MpiOp::Reduce, MpiParams::rooted(root, count));
                Ok(Value::Int(0))
            }
            Builtin::Allreduce => {
                self.record(gid, MpiOp::Allreduce, MpiParams::collective(int(0)?));
                Ok(Value::Int(0))
            }
            Builtin::Alltoall => {
                self.record(gid, MpiOp::Alltoall, MpiParams::collective(int(0)?));
                Ok(Value::Int(0))
            }
            Builtin::Allgather => {
                self.record(gid, MpiOp::Allgather, MpiParams::collective(int(0)?));
                Ok(Value::Int(0))
            }
            Builtin::Sendrecv => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                let (src, rcount, rtag) = (int(3)?, int(4)?, int(5)?);
                self.check_peer(dest, "sendrecv destination")?;
                self.check_src(src)?;
                self.record(
                    gid,
                    MpiOp::Sendrecv,
                    MpiParams::sendrecv(dest, count, tag, src, rcount, rtag),
                );
                Ok(Value::Int(0))
            }
        }
    }

    fn check_peer(&self, r: i64, what: &str) -> RunResult<()> {
        if r < 0 || r >= self.nprocs {
            return Err(RuntimeError(format!(
                "{what} {r} out of range 0..{} on rank {}",
                self.nprocs, self.rank
            )));
        }
        Ok(())
    }

    fn check_src(&self, r: i64) -> RunResult<()> {
        if r == ANY_SOURCE {
            return Ok(());
        }
        self.check_peer(r, "receive source")
    }

    /// Virtual time accumulated so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

/// Convenience: does this event sequence carry a given MPI op?
pub fn has_op(events: &[Event], op: MpiOp) -> bool {
    events
        .iter()
        .any(|e| matches!(e, Event::Mpi(r) if r.op == op))
}

/// Check an event stream's structural sanity: every `Exit` matches the most
/// recent unmatched `Enter`-ed structure *or* closes an enclosing loop whose
/// iterations re-`Enter` (the protocol of §IV-A). Used by tests.
pub fn well_nested(events: &[Event]) -> bool {
    let mut stack: Vec<u32> = Vec::new();
    for e in events {
        match e {
            Event::Enter { gid } => {
                // Loop iterations re-enter the same gid: collapse.
                if stack.last() != Some(gid) {
                    stack.push(*gid);
                }
            }
            Event::Exit { gid } => {
                // Pop until we close `gid`.
                loop {
                    match stack.pop() {
                        Some(g) if g == *gid => break,
                        Some(_) => continue,
                        None => return false,
                    }
                }
            }
            Event::Mpi(_) => {}
        }
    }
    true
}

#[allow(unused)]
fn _static_assert_none_is_distinct() {
    // ANY_SOURCE and NONE must stay distinct for `check_src`.
    const _: () = assert!(ANY_SOURCE != NONE);
}
