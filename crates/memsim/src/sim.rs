//! The deterministic multi-threaded timing simulator.
//!
//! Threads execute `fence-ir` with per-thread cycle clocks; the scheduler
//! always steps the thread with the smallest clock (ties: smallest tid),
//! so the global visibility order is well defined and every run is
//! deterministic.
//!
//! In [`MemMode::Tso`], stores enter a per-thread FIFO buffer and retire
//! to shared memory [`crate::cost::STORE_RETIRE_DELAY`] cycles later;
//! loads forward from the issuing thread's own buffer; `fence full`,
//! RMW/CAS, and lock/barrier intrinsics stall until the buffer drains —
//! exactly the x86-TSO behaviours whose cost Figure 10 measures. In
//! [`MemMode::Sc`] stores are immediately visible (the reference model).
//!
//! Frames, operand evaluation, the register instructions and the initial
//! memory image come from the interpreter core shared with
//! [`crate::litmus`]; this module adds the timed store buffer, faults,
//! the trace, costs, calls and intrinsics.

use crate::cost::*;
use crate::interp::{memory_image, Frame};
use crate::layout::Layout;
use fence_ir::{FenceKind, FuncId, InstId, InstKind, Intrinsic, Module, Value};
use std::collections::VecDeque;

/// Memory model for the timing simulator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MemMode {
    /// Sequentially consistent: stores visible immediately.
    Sc,
    /// Total store order: FIFO store buffer per thread.
    Tso,
}

/// What one thread runs: an entry function and its arguments.
#[derive(Clone, Debug)]
pub struct ThreadSpec {
    /// Entry function.
    pub func: FuncId,
    /// Argument values (`Value::Arg(i)` in the body).
    pub args: Vec<i64>,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Memory model.
    pub mode: MemMode,
    /// Abort after this many instruction steps (livelock guard).
    pub step_limit: u64,
    /// Heap words available to `alloc`.
    pub heap_words: usize,
    /// Record a memory-access trace (supported in `Sc` mode; used by the
    /// race detector).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: MemMode::Tso,
            step_limit: DEFAULT_STEP_LIMIT,
            heap_words: DEFAULT_HEAP_WORDS,
            record_trace: false,
        }
    }
}

/// Kinds of trace events (SC mode only).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// Shared-memory read.
    Read,
    /// Shared-memory write.
    Write,
    /// Lock acquired.
    LockAcquire,
    /// Lock released.
    LockRelease,
    /// Barrier arrival (aux = generation): the thread's work so far is
    /// published to the barrier.
    BarrierArrive,
    /// Barrier departure (aux = generation): the thread observes all work
    /// published to that generation.
    BarrierDepart,
}

/// One entry of the SC execution trace.
#[derive(Copy, Clone, Debug)]
pub struct TraceEvent {
    /// Executing thread.
    pub tid: u32,
    /// Function containing the instruction.
    pub func: FuncId,
    /// The instruction.
    pub inst: InstId,
    /// Event kind.
    pub kind: TraceEventKind,
    /// Address touched.
    pub addr: i64,
    /// Extra data (barrier generation).
    pub aux: u64,
}

/// Simulation failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The step limit was exceeded (livelock or runaway loop).
    StepLimit(u64),
    /// Access to an unmapped address.
    Fault {
        /// Thread that performed the faulting access.
        tid: u32,
        /// The unmapped address.
        addr: i64,
    },
    /// The bump allocator ran out of heap.
    HeapExhausted,
    /// A declared-but-undefined function was called.
    UndefinedFunction(String),
    /// Launched with no threads.
    NoThreads,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::StepLimit(n) => write!(f, "step limit of {n} exceeded"),
            SimError::Fault { tid, addr } => write!(f, "thread {tid} faulted at address {addr}"),
            SimError::HeapExhausted => write!(f, "heap exhausted"),
            SimError::UndefinedFunction(n) => write!(f, "call to undefined function {n}"),
            SimError::NoThreads => write!(f, "no threads to run"),
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Simulated execution time: the max over thread clocks.
    pub cycles: u64,
    /// Final clock of each thread.
    pub thread_cycles: Vec<u64>,
    /// Total instruction steps executed.
    pub insts: u64,
    /// Explicit full fences executed (dynamic count).
    pub full_fences: u64,
    /// RMW/CAS/lock operations executed (implicitly fencing).
    pub atomic_ops: u64,
    /// Return value of each thread's entry function.
    pub retvals: Vec<i64>,
    /// `print` intrinsic output, in execution order.
    pub prints: Vec<(u32, i64)>,
    /// SC-mode access trace (empty unless requested).
    pub trace: Vec<TraceEvent>,
    mem: Vec<i64>,
    layout: Layout,
}

impl SimResult {
    /// Reads word `offset` of global `name` from final memory.
    pub fn read_global(&self, module: &Module, name: &str, offset: usize) -> i64 {
        let g = module
            .global_by_name(name)
            .unwrap_or_else(|| panic!("no global named {name}"));
        self.mem[(self.layout.addr(g, offset)) as usize]
    }
}

struct StoreEntry {
    addr: i64,
    val: i64,
    retire: u64,
}

struct Thread {
    frames: Vec<Frame>,
    clock: u64,
    done: bool,
    retval: i64,
    buffer: VecDeque<StoreEntry>,
    /// `(barrier addr, generation when we arrived)` while waiting.
    barrier_wait: Option<(i64, u64)>,
}

#[derive(Default)]
struct BarrierState {
    count: u32,
    gen: u64,
}

/// The simulator: a module plus configuration, reusable across runs.
pub struct Simulator<'m> {
    module: &'m Module,
    layout: Layout,
    config: SimConfig,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator with default (TSO) configuration.
    pub fn new(module: &'m Module) -> Self {
        Self::with_config(module, SimConfig::default())
    }

    /// Creates a simulator with explicit configuration.
    pub fn with_config(module: &'m Module, config: SimConfig) -> Self {
        Simulator {
            module,
            layout: Layout::of(module),
            config,
        }
    }

    /// The layout used for this module.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// A fresh frame for `func`, or the error for a declared-but-undefined
    /// function.
    fn frame(&self, func: FuncId, args: Vec<i64>) -> Result<Frame, SimError> {
        let f = self.module.func(func);
        if f.blocks.is_empty() || f.blocks[f.entry.index()].insts.is_empty() {
            return Err(SimError::UndefinedFunction(f.name.clone()));
        }
        Ok(Frame::new(func, f, args))
    }

    /// Runs `threads` to completion.
    pub fn run(&self, threads: &[ThreadSpec]) -> Result<SimResult, SimError> {
        if threads.is_empty() {
            return Err(SimError::NoThreads);
        }
        let mut st = RunState::new(self, threads)?;
        st.run()?;
        Ok(st.finish())
    }
}

struct RunState<'m, 's> {
    sim: &'s Simulator<'m>,
    mem: Vec<i64>,
    heap_next: i64,
    heap_end: i64,
    threads: Vec<Thread>,
    barriers: fence_ir::util::FastMap<i64, BarrierState>,
    steps: u64,
    full_fences: u64,
    atomic_ops: u64,
    prints: Vec<(u32, i64)>,
    trace: Vec<TraceEvent>,
}

impl<'m, 's> RunState<'m, 's> {
    fn new(sim: &'s Simulator<'m>, threads: &[ThreadSpec]) -> Result<Self, SimError> {
        let heap_end = sim.layout.heap_start + sim.config.heap_words as i64;
        let mut ts = Vec::with_capacity(threads.len());
        for spec in threads {
            ts.push(Thread {
                frames: vec![sim.frame(spec.func, spec.args.clone())?],
                clock: 0,
                done: false,
                retval: 0,
                buffer: VecDeque::new(),
                barrier_wait: None,
            });
        }
        Ok(RunState {
            sim,
            mem: memory_image(sim.module, &sim.layout, 0, heap_end),
            heap_next: sim.layout.heap_start,
            heap_end,
            threads: ts,
            barriers: Default::default(),
            steps: 0,
            full_fences: 0,
            atomic_ops: 0,
            prints: Vec::new(),
            trace: Vec::new(),
        })
    }

    fn run(&mut self) -> Result<(), SimError> {
        loop {
            // Pick the runnable thread with the smallest clock.
            let mut pick: Option<usize> = None;
            for (i, t) in self.threads.iter().enumerate() {
                if !t.done && pick.is_none_or(|p| t.clock < self.threads[p].clock) {
                    pick = Some(i);
                }
            }
            let tid = match pick {
                Some(t) => t,
                None => return Ok(()),
            };
            let now = self.threads[tid].clock;
            self.retire_up_to(now);
            self.step(tid)?;
            self.steps += 1;
            if self.steps > self.sim.config.step_limit {
                return Err(SimError::StepLimit(self.sim.config.step_limit));
            }
        }
    }

    /// Applies buffered stores (across all threads) whose retire time has
    /// passed, in global (retire, tid) order.
    fn retire_up_to(&mut self, time: u64) {
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, t) in self.threads.iter().enumerate() {
                if let Some(front) = t.buffer.front() {
                    if front.retire <= time
                        && best.is_none_or(|(r, bt)| (front.retire, i) < (r, bt))
                    {
                        best = Some((front.retire, i));
                    }
                }
            }
            match best {
                Some((_, i)) => {
                    let e = self.threads[i].buffer.pop_front().expect("non-empty");
                    self.mem[e.addr as usize] = e.val;
                }
                None => return,
            }
        }
    }

    /// Drains a thread's own buffer (fence/atomic semantics). Returns the
    /// time by which all its stores have retired.
    fn drain_own(&mut self, tid: usize) -> u64 {
        let t = &mut self.threads[tid];
        let mut last = t.clock;
        while let Some(e) = t.buffer.pop_front() {
            last = last.max(e.retire);
            self.mem[e.addr as usize] = e.val;
        }
        last
    }

    fn check_addr(&self, tid: usize, addr: i64) -> Result<(), SimError> {
        if addr < Layout::GUARD || addr >= self.heap_end {
            Err(SimError::Fault {
                tid: tid as u32,
                addr,
            })
        } else {
            Ok(())
        }
    }

    fn record(&mut self, tid: usize, kind: TraceEventKind, addr: i64, aux: u64) {
        if self.sim.config.record_trace {
            let f = self.threads[tid].frames.last().expect("live frame");
            self.trace.push(TraceEvent {
                tid: tid as u32,
                func: f.func,
                inst: f.pc(self.sim.module.func(f.func)),
                kind,
                addr,
                aux,
            });
        }
    }

    /// Executes one instruction of thread `tid`.
    fn step(&mut self, tid: usize) -> Result<(), SimError> {
        let sim = self.sim;
        let (module, layout) = (sim.module, &sim.layout);
        let tso = sim.config.mode == MemMode::Tso;

        let f = self.threads[tid].frames.last_mut().expect("live frame");
        let inst_id = f.pc(module.func(f.func));
        let kind = &module.func(f.func).inst(inst_id).kind;
        if f.exec_register(inst_id, kind, layout) {
            f.idx += 1;
            self.threads[tid].clock += COST_ALU;
            return Ok(());
        }

        macro_rules! frame {
            () => {
                self.threads[tid].frames.last_mut().expect("live frame")
            };
        }
        macro_rules! ev {
            ($v:expr) => {
                self.threads[tid]
                    .frames
                    .last()
                    .expect("live frame")
                    .eval($v, layout)
            };
        }

        match *kind {
            InstKind::Alloc { words } => {
                let w = ev!(words).max(0);
                if self.heap_next + w > self.heap_end {
                    return Err(SimError::HeapExhausted);
                }
                let addr = self.heap_next;
                self.heap_next += w;
                let f = frame!();
                f.results[inst_id.index()] = addr;
                f.idx += 1;
                self.threads[tid].clock += COST_ALU;
            }
            InstKind::Load { addr } => {
                let a = ev!(addr);
                self.check_addr(tid, a)?;
                self.record(tid, TraceEventKind::Read, a, 0);
                let mut val = None;
                let mut cost = COST_LOAD;
                if tso {
                    // Store-to-load forwarding from own buffer (newest wins).
                    for e in self.threads[tid].buffer.iter().rev() {
                        if e.addr == a {
                            val = Some(e.val);
                            cost = COST_LOAD_FWD;
                            break;
                        }
                    }
                }
                let v = val.unwrap_or(self.mem[a as usize]);
                let f = frame!();
                f.results[inst_id.index()] = v;
                f.idx += 1;
                self.threads[tid].clock += cost;
            }
            InstKind::Store { addr, val } => {
                let a = ev!(addr);
                let v = ev!(val);
                self.check_addr(tid, a)?;
                if tso {
                    if self.threads[tid].buffer.len() >= STORE_BUFFER_CAP {
                        // Stall until the oldest entry's retire time; the
                        // global retire pass frees the slot on re-step.
                        let front = self.threads[tid].buffer.front().expect("full").retire;
                        let t = &mut self.threads[tid];
                        t.clock = t.clock.max(front) + 1;
                        return Ok(()); // retry this store
                    }
                    self.record(tid, TraceEventKind::Write, a, 0);
                    let t = &mut self.threads[tid];
                    let retire = (t.clock + STORE_RETIRE_DELAY)
                        .max(t.buffer.back().map_or(0, |e| e.retire + 1));
                    t.buffer.push_back(StoreEntry {
                        addr: a,
                        val: v,
                        retire,
                    });
                    t.clock += COST_STORE_ISSUE;
                } else {
                    self.record(tid, TraceEventKind::Write, a, 0);
                    self.mem[a as usize] = v;
                    self.threads[tid].clock += COST_STORE_ISSUE;
                }
                frame!().idx += 1;
            }
            InstKind::Fence {
                kind: FenceKind::Full,
            } => {
                self.full_fences += 1;
                let t = &mut self.threads[tid];
                let drained = t.buffer.back().map_or(t.clock, |e| e.retire);
                t.clock = t.clock.max(drained) + COST_FENCE_BASE;
                frame!().idx += 1;
            }
            InstKind::Fence {
                kind: FenceKind::Compiler,
            } => {
                // No presence in the final binary: zero cost.
                frame!().idx += 1;
            }
            InstKind::AtomicRmw { op, addr, val } => {
                let a = ev!(addr);
                let v = ev!(val);
                self.check_addr(tid, a)?;
                self.record(tid, TraceEventKind::Read, a, 0);
                self.record(tid, TraceEventKind::Write, a, 0);
                let drained = self.drain_own(tid);
                let t = &mut self.threads[tid];
                t.clock = t.clock.max(drained) + COST_RMW;
                let old = self.mem[a as usize];
                self.mem[a as usize] = op.eval(old, v);
                self.atomic_ops += 1;
                let f = frame!();
                f.results[inst_id.index()] = old;
                f.idx += 1;
            }
            InstKind::AtomicCas {
                addr,
                expected,
                new,
            } => {
                let a = ev!(addr);
                let exp = ev!(expected);
                let newv = ev!(new);
                self.check_addr(tid, a)?;
                self.record(tid, TraceEventKind::Read, a, 0);
                let drained = self.drain_own(tid);
                let t = &mut self.threads[tid];
                t.clock = t.clock.max(drained) + COST_RMW;
                let old = self.mem[a as usize];
                if old == exp {
                    self.record(tid, TraceEventKind::Write, a, 0);
                    self.mem[a as usize] = newv;
                }
                self.atomic_ops += 1;
                let f = frame!();
                f.results[inst_id.index()] = old;
                f.idx += 1;
            }
            InstKind::CallIntrinsic { intr, ref args } => {
                self.step_intrinsic(tid, inst_id, intr, args)?;
            }
            InstKind::Call { callee, ref args } => {
                let argv = args.iter().map(|&a| ev!(a)).collect();
                let nf = sim.frame(callee, argv)?;
                self.threads[tid].frames.push(nf);
                self.threads[tid].clock += COST_CALL;
            }
            InstKind::Br { target } => {
                frame!().jump(target);
                self.threads[tid].clock += COST_ALU;
            }
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = if ev!(cond) != 0 { then_bb } else { else_bb };
                frame!().jump(taken);
                self.threads[tid].clock += COST_ALU;
            }
            InstKind::Ret { val } => {
                let rv = val.map(|v| ev!(v)).unwrap_or(0);
                let t = &mut self.threads[tid];
                t.frames.pop();
                match t.frames.last_mut() {
                    Some(caller) => {
                        // The caller's pc still points at the call.
                        let call_inst = caller.pc(module.func(caller.func));
                        caller.results[call_inst.index()] = rv;
                        caller.idx += 1;
                        t.clock += COST_CALL;
                    }
                    None => {
                        t.done = true;
                        t.retval = rv;
                        // A finishing thread publishes its work (join
                        // semantics): drain its buffer.
                        t.frames.clear();
                        let _ = self.drain_own(tid);
                    }
                }
            }
            _ => unreachable!("register instructions ran above"),
        }
        Ok(())
    }

    fn step_intrinsic(
        &mut self,
        tid: usize,
        inst_id: InstId,
        intr: Intrinsic,
        args: &[Value],
    ) -> Result<(), SimError> {
        let layout = &self.sim.layout;
        let evx = |st: &RunState, i: usize| {
            let f = st.threads[tid].frames.last().expect("live frame");
            f.eval(args[i], layout)
        };
        match intr {
            Intrinsic::ThreadId => {
                let f = self.threads[tid].frames.last_mut().expect("frame");
                f.results[inst_id.index()] = tid as i64;
                f.idx += 1;
                self.threads[tid].clock += COST_ALU;
            }
            Intrinsic::NumThreads => {
                let n = self.threads.len() as i64;
                let f = self.threads[tid].frames.last_mut().expect("frame");
                f.results[inst_id.index()] = n;
                f.idx += 1;
                self.threads[tid].clock += COST_ALU;
            }
            Intrinsic::Print => {
                let v = evx(self, 0);
                self.prints.push((tid as u32, v));
                self.threads[tid].frames.last_mut().expect("frame").idx += 1;
                self.threads[tid].clock += COST_ALU;
            }
            Intrinsic::LockAcquire => {
                let a = evx(self, 0);
                self.check_addr(tid, a)?;
                if self.mem[a as usize] != 0 {
                    // Spin (test-and-test-and-set fast path).
                    self.threads[tid].clock += COST_SPIN_RETRY;
                    return Ok(());
                }
                let drained = self.drain_own(tid);
                let t = &mut self.threads[tid];
                t.clock = t.clock.max(drained) + COST_RMW;
                self.mem[a as usize] = 1 + tid as i64;
                self.atomic_ops += 1;
                self.record(tid, TraceEventKind::LockAcquire, a, 0);
                self.threads[tid].frames.last_mut().expect("frame").idx += 1;
            }
            Intrinsic::LockRelease => {
                let a = evx(self, 0);
                self.check_addr(tid, a)?;
                // Release is a plain store on x86; make it immediately
                // visible after draining program-order-earlier stores.
                let drained = self.drain_own(tid);
                let t = &mut self.threads[tid];
                t.clock = t.clock.max(drained) + COST_STORE_ISSUE;
                self.record(tid, TraceEventKind::LockRelease, a, 0);
                self.mem[a as usize] = 0;
                self.threads[tid].frames.last_mut().expect("frame").idx += 1;
            }
            Intrinsic::BarrierWait => {
                let a = evx(self, 0);
                let n = evx(self, 1).max(1) as u32;
                self.check_addr(tid, a)?;
                if let Some((addr, gen)) = self.threads[tid].barrier_wait {
                    // Waiting for the generation to advance.
                    debug_assert_eq!(addr, a, "nested barriers unsupported");
                    if self.barriers.get(&a).is_some_and(|b| b.gen > gen) {
                        self.record(tid, TraceEventKind::BarrierDepart, a, gen);
                        self.threads[tid].barrier_wait = None;
                        self.threads[tid].frames.last_mut().expect("frame").idx += 1;
                        self.threads[tid].clock += COST_ALU;
                    } else {
                        self.threads[tid].clock += COST_SPIN_RETRY;
                    }
                    return Ok(());
                }
                // First arrival: fence semantics.
                let drained = self.drain_own(tid);
                {
                    let t = &mut self.threads[tid];
                    t.clock = t.clock.max(drained) + COST_RMW;
                }
                self.atomic_ops += 1;
                let st = self.barriers.entry(a).or_default();
                st.count += 1;
                let gen = st.gen;
                if st.count >= n {
                    st.count = 0;
                    st.gen += 1;
                    self.record(tid, TraceEventKind::BarrierArrive, a, gen);
                    self.record(tid, TraceEventKind::BarrierDepart, a, gen);
                    self.threads[tid].frames.last_mut().expect("frame").idx += 1;
                } else {
                    self.record(tid, TraceEventKind::BarrierArrive, a, gen);
                    self.threads[tid].barrier_wait = Some((a, gen));
                    self.threads[tid].clock += COST_SPIN_RETRY;
                }
            }
        }
        Ok(())
    }

    fn finish(mut self) -> SimResult {
        // Drain any straggler buffers so final memory is complete.
        for tid in 0..self.threads.len() {
            let _ = self.drain_own(tid);
        }
        SimResult {
            cycles: self.threads.iter().map(|t| t.clock).max().unwrap_or(0),
            thread_cycles: self.threads.iter().map(|t| t.clock).collect(),
            insts: self.steps,
            full_fences: self.full_fences,
            atomic_ops: self.atomic_ops,
            retvals: self.threads.iter().map(|t| t.retval).collect(),
            prints: self.prints,
            trace: self.trace,
            mem: self.mem,
            layout: self.sim.layout.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};

    /// Single thread sums 0..10 into a global.
    #[test]
    fn single_thread_sum() {
        let mut mb = ModuleBuilder::new("m");
        let sum = mb.global("sum", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.for_loop(0i64, 10i64, |f, i| {
            let s = f.load(sum);
            let ns = f.add(s, i);
            f.store(sum, ns);
        });
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        for mode in [MemMode::Sc, MemMode::Tso] {
            let sim = Simulator::with_config(
                &m,
                SimConfig {
                    mode,
                    ..Default::default()
                },
            );
            let r = sim
                .run(&[ThreadSpec {
                    func: fid,
                    args: vec![],
                }])
                .expect("runs");
            assert_eq!(r.read_global(&m, "sum", 0), 45, "{mode:?}");
        }
    }

    /// Store-to-load forwarding: a thread sees its own buffered store.
    #[test]
    fn tso_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.store(x, 42i64);
        let v = fb.load(x);
        fb.ret(Some(v));
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let r = Simulator::new(&m)
            .run(&[ThreadSpec {
                func: fid,
                args: vec![],
            }])
            .expect("runs");
        assert_eq!(r.retvals[0], 42);
    }

    /// MP with a spin loop completes and reads the produced data under TSO
    /// (TSO preserves w→w and r→r, so MP is correct without fences).
    #[test]
    fn mp_spin_completes_under_tso() {
        let mut mb = ModuleBuilder::new("m");
        let data = mb.global("data", 1);
        let flag = mb.global("flag", 1);
        let mut p = FunctionBuilder::new("producer", 0);
        p.store(data, 99i64);
        p.store(flag, 1i64);
        p.ret(None);
        let pid = mb.add_func(p.build());
        let mut c = FunctionBuilder::new("consumer", 0);
        c.spin_while_eq(flag, 0i64);
        let v = c.load(data);
        c.ret(Some(v));
        let cid = mb.add_func(c.build());
        let m = mb.finish();
        let r = Simulator::new(&m)
            .run(&[
                ThreadSpec {
                    func: pid,
                    args: vec![],
                },
                ThreadSpec {
                    func: cid,
                    args: vec![],
                },
            ])
            .expect("runs");
        assert_eq!(r.retvals[1], 99, "consumer saw the produced value");
    }

    /// Locks provide mutual exclusion: concurrent increments don't race.
    #[test]
    fn lock_protected_counter() {
        let mut mb = ModuleBuilder::new("m");
        let lock = mb.global("lock", 1);
        let ctr = mb.global("ctr", 1);
        let mut fb = FunctionBuilder::new("worker", 0);
        fb.for_loop(0i64, 50i64, |f, _| {
            f.lock_acquire(lock);
            let v = f.load(ctr);
            let nv = f.add(v, 1);
            f.store(ctr, nv);
            f.lock_release(lock);
        });
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let spec = ThreadSpec {
            func: fid,
            args: vec![],
        };
        let r = Simulator::new(&m)
            .run(&[spec.clone(), spec.clone(), spec.clone(), spec])
            .expect("runs");
        assert_eq!(r.read_global(&m, "ctr", 0), 200);
        assert!(r.atomic_ops >= 200);
    }

    /// Barrier releases all threads and orders phases.
    #[test]
    fn barrier_phases() {
        let mut mb = ModuleBuilder::new("m");
        let bar = mb.global("bar", 2);
        let arr = mb.global("arr", 4);
        let out = mb.global("out", 4);
        let mut fb = FunctionBuilder::new("worker", 1);
        // Phase 1: arr[tid] = tid + 1.
        let tid = fence_ir::Value::Arg(0);
        let p = fb.gep(arr, tid);
        let v = fb.add(tid, 1i64);
        fb.store(p, v);
        fb.barrier_wait(bar, 4i64);
        // Phase 2: out[tid] = arr[(tid+1) % 4].
        let nxt = fb.add(tid, 1i64);
        let idx = fb.rem(nxt, 4i64);
        let q = fb.gep(arr, idx);
        let w = fb.load(q);
        let o = fb.gep(out, tid);
        fb.store(o, w);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let threads: Vec<ThreadSpec> = (0..4)
            .map(|t| ThreadSpec {
                func: fid,
                args: vec![t],
            })
            .collect();
        let r = Simulator::new(&m).run(&threads).expect("runs");
        for t in 0..4 {
            let expect = ((t + 1) % 4) + 1;
            assert_eq!(r.read_global(&m, "out", t as usize), expect);
        }
    }

    /// Full fences cost cycles: the fenced variant is slower.
    #[test]
    fn fences_cost_cycles() {
        let build = |with_fence: bool| {
            let mut mb = ModuleBuilder::new("m");
            let x = mb.global("x", 1);
            let y = mb.global("y", 1);
            let mut fb = FunctionBuilder::new("main", 0);
            fb.for_loop(0i64, 200i64, |f, i| {
                f.store(x, i);
                if with_fence {
                    f.fence(FenceKind::Full);
                }
                let _ = f.load(y);
            });
            fb.ret(None);
            let fid = mb.add_func(fb.build());
            (mb.finish(), fid)
        };
        let (m0, f0) = build(false);
        let (m1, f1) = build(true);
        let r0 = Simulator::new(&m0)
            .run(&[ThreadSpec {
                func: f0,
                args: vec![],
            }])
            .unwrap();
        let r1 = Simulator::new(&m1)
            .run(&[ThreadSpec {
                func: f1,
                args: vec![],
            }])
            .unwrap();
        assert_eq!(r1.full_fences, 200);
        assert!(
            r1.cycles > r0.cycles + 200 * COST_FENCE_BASE / 2,
            "fenced {} vs unfenced {}",
            r1.cycles,
            r0.cycles
        );
    }

    /// Compiler directives are free.
    #[test]
    fn compiler_directives_are_free() {
        let build = |with_dir: bool| {
            let mut mb = ModuleBuilder::new("m");
            let x = mb.global("x", 1);
            let mut fb = FunctionBuilder::new("main", 0);
            fb.for_loop(0i64, 100i64, |f, i| {
                f.store(x, i);
                if with_dir {
                    f.fence(FenceKind::Compiler);
                }
            });
            fb.ret(None);
            let fid = mb.add_func(fb.build());
            (mb.finish(), fid)
        };
        let (m0, f0) = build(false);
        let (m1, f1) = build(true);
        let r0 = Simulator::new(&m0)
            .run(&[ThreadSpec {
                func: f0,
                args: vec![],
            }])
            .unwrap();
        let r1 = Simulator::new(&m1)
            .run(&[ThreadSpec {
                func: f1,
                args: vec![],
            }])
            .unwrap();
        assert_eq!(r0.cycles, r1.cycles);
        assert_eq!(r1.full_fences, 0);
    }

    /// Calls and returns pass values.
    #[test]
    fn call_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let sq = mb.declare_func("square", 1);
        let mut fb = FunctionBuilder::new("square", 1);
        let v = fb.mul(fence_ir::Value::Arg(0), fence_ir::Value::Arg(0));
        fb.ret(Some(v));
        mb.define_func(sq, fb.build());
        let mut mainb = FunctionBuilder::new("main", 0);
        let r = mainb.call(sq, vec![fence_ir::Value::c(7)]);
        mainb.ret(Some(r));
        let main = mb.add_func(mainb.build());
        let m = mb.finish();
        let r = Simulator::new(&m)
            .run(&[ThreadSpec {
                func: main,
                args: vec![],
            }])
            .unwrap();
        assert_eq!(r.retvals[0], 49);
    }

    /// Alloc hands out disjoint regions; fault on wild address.
    #[test]
    fn alloc_and_fault() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("main", 0);
        let a = fb.alloc(4i64);
        let b = fb.alloc(4i64);
        fb.store(a, 1i64);
        fb.store(b, 2i64);
        let va = fb.load(a);
        let vb = fb.load(b);
        let s = fb.add(va, vb);
        fb.ret(Some(s));
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let r = Simulator::new(&m)
            .run(&[ThreadSpec {
                func: fid,
                args: vec![],
            }])
            .unwrap();
        assert_eq!(r.retvals[0], 3);

        // Null deref faults.
        let mut mb2 = ModuleBuilder::new("m2");
        let mut fb2 = FunctionBuilder::new("main", 0);
        let _ = fb2.load(0i64);
        fb2.ret(None);
        let fid2 = mb2.add_func(fb2.build());
        let m2 = mb2.finish();
        let e = Simulator::new(&m2)
            .run(&[ThreadSpec {
                func: fid2,
                args: vec![],
            }])
            .unwrap_err();
        assert!(matches!(e, SimError::Fault { addr: 0, .. }));
    }

    /// Step limit guards against livelock.
    #[test]
    fn step_limit_fires() {
        let mut mb = ModuleBuilder::new("m");
        let flag = mb.global("flag", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.spin_while_eq(flag, 0i64); // never set
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let sim = Simulator::with_config(
            &m,
            SimConfig {
                step_limit: 10_000,
                ..Default::default()
            },
        );
        let e = sim
            .run(&[ThreadSpec {
                func: fid,
                args: vec![],
            }])
            .unwrap_err();
        assert_eq!(e, SimError::StepLimit(10_000));
    }

    /// Determinism: identical runs give identical cycle counts.
    #[test]
    fn deterministic() {
        let mut mb = ModuleBuilder::new("m");
        let lock = mb.global("lock", 1);
        let ctr = mb.global("ctr", 1);
        let mut fb = FunctionBuilder::new("w", 0);
        fb.for_loop(0i64, 20i64, |f, _| {
            f.lock_acquire(lock);
            let v = f.load(ctr);
            let nv = f.add(v, 1);
            f.store(ctr, nv);
            f.lock_release(lock);
        });
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let spec = ThreadSpec {
            func: fid,
            args: vec![],
        };
        let r1 = Simulator::new(&m)
            .run(&[spec.clone(), spec.clone()])
            .unwrap();
        let r2 = Simulator::new(&m).run(&[spec.clone(), spec]).unwrap();
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.insts, r2.insts);
    }

    /// Trace recording in SC mode captures reads and writes.
    #[test]
    fn trace_recording() {
        let mut mb = ModuleBuilder::new("m");
        let x = mb.global("x", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.store(x, 5i64);
        let _ = fb.load(x);
        fb.ret(None);
        let fid = mb.add_func(fb.build());
        let m = mb.finish();
        let sim = Simulator::with_config(
            &m,
            SimConfig {
                mode: MemMode::Sc,
                record_trace: true,
                ..Default::default()
            },
        );
        let r = sim
            .run(&[ThreadSpec {
                func: fid,
                args: vec![],
            }])
            .unwrap();
        assert_eq!(r.trace.len(), 2);
        assert_eq!(r.trace[0].kind, TraceEventKind::Write);
        assert_eq!(r.trace[1].kind, TraceEventKind::Read);
        assert_eq!(r.trace[0].addr, r.trace[1].addr);
    }
}
