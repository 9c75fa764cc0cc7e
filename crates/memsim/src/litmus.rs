//! Exhaustive litmus-test enumeration under SC, TSO, and a weak model.
//!
//! For *small* programs (litmus tests), explores every reachable state and
//! collects the set of final outcomes (each thread's return value). This
//! is the oracle behind the soundness experiments:
//!
//! * **SC**: threads interleave at instruction granularity; stores are
//!   immediately visible.
//! * **TSO**: adds a per-thread FIFO store buffer with store-to-load
//!   forwarding; buffered stores retire nondeterministically; `fence
//!   full`, RMW and CAS execute only on an empty buffer (drain semantics).
//!   This exhibits exactly the `w→r` relaxation of x86 (SB/Dekker break;
//!   MP does not).
//! * **Weak**: a bounded out-of-order window per thread. Instructions
//!   execute in any order consistent with data dependences, same-address
//!   ordering, no-speculation (a conditional branch must resolve before
//!   fetch proceeds), and full fences. Stores are immediately visible when
//!   they execute, so `w→w` and `r→r` reorder freely — MP breaks here,
//!   matching Power/ARM-class machines. Compiler directives have no
//!   runtime effect under any hardware model (they only constrain the
//!   compiler, and IR is "already compiled").
//!
//! One explorer serves all three models. A thread is the interpreter
//! frame the timing simulator also runs on, plus a TSO store buffer and a
//! weak window, each left empty when its model does not use it. Under SC
//! and TSO a thread executes the instruction at its program counter;
//! under the weak model the program counter is the fetch cursor, and a
//! thread executes any ready window entry.
//!
//! Explored states share whatever a move leaves unchanged, copy-on-write:
//!
//! * a state holds its threads behind `Rc`, each with its hash, so a move
//!   copies and rehashes only the thread that moved;
//! * a TSO store buffer is a shared FIFO: a retire advances a head index
//!   and copies nothing, and a rolling hash is kept current on push and
//!   retire;
//! * the global image is pages behind a shared page table, with its hash
//!   kept current on every write, so a move that writes no memory copies
//!   no table, and a write copies the table and one page.
//!
//! Equality is by content (hashes, then pointers, then contents), so
//! states that reach equal contents by different paths still merge. The
//! explorer hashes, allocates and stores each distinct state once.
//!
//! Litmus functions may not call, allocate, or use intrinsics; at most 64
//! instructions per function.

use crate::interp::{memory_image, Frame};
use crate::layout::Layout;
use fence_ir::util::{FastSet, FxHasher};
use fence_ir::{FenceKind, FuncId, Function, InstId, InstKind, Module, Value};
use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

/// The memory model to enumerate under.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LitmusModel {
    /// Sequential consistency.
    Sc,
    /// Total store order (x86-style store buffers).
    Tso,
    /// Out-of-order window of the given size (Power/ARM-flavoured).
    Weak {
        /// Maximum number of in-flight (fetched, unexecuted) instructions.
        window: usize,
    },
}

/// One observed outcome: the return value of each thread, in order.
pub type LitmusOutcome = Vec<i64>;

/// Checks that `func` can be litmus-enumerated: at most 64 instructions
/// and no calls, intrinsics, or allocation. Returns the reason when not —
/// the non-panicking twin of the internal `validate` gate, used by the
/// certifying checker ([`crate::check`]) to *skip* ineligible functions
/// instead of dying on them.
pub fn enumerable(func: &Function) -> Result<(), String> {
    if func.num_insts() > 64 {
        return Err(format!("too large ({} insts)", func.num_insts()));
    }
    for (_, inst) in func.iter_insts() {
        if matches!(
            inst.kind,
            InstKind::Call { .. } | InstKind::CallIntrinsic { .. } | InstKind::Alloc { .. }
        ) {
            return Err("uses calls/intrinsics/alloc".to_string());
        }
    }
    Ok(())
}

/// Validates that `func` is enumerable.
fn validate(func: &Function) {
    if let Err(reason) = enumerable(func) {
        panic!("litmus function {}: {reason} — unsupported", func.name);
    }
}

/// Words per image page. Pages of 16 to 128 words certified Matrix and
/// Canneal within noise of each other, in time and in peak memory.
const PAGE: usize = 32;

/// splitmix64's finalizer applied to word `i` holding `v`: one term of
/// an image's hash, or of a store buffer's with a store's address as `i`.
fn mix(i: usize, v: i64) -> u64 {
    let mut z = (v as u64).wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The global memory of one state: fixed-size pages shared copy-on-write
/// between a state and its successors, behind a page table that is
/// shared too. Cloning a state copies neither; a write copies the table
/// and the one page it lands in.
///
/// Enumerable functions can still *compute* arbitrary addresses
/// (dereferencing a loaded pointer that holds 0, gep arithmetic), so the
/// explorer uses total memory semantics: a wild load reads 0, a wild
/// store is dropped. Every model applies the same rule, so soundness
/// comparisons stay apples-to-apples.
#[derive(Clone)]
struct Image {
    /// Words `0..len` in pages of [`PAGE`]; the tail of the last page is
    /// zero and never written.
    pages: Rc<[Rc<[i64; PAGE]>]>,
    len: usize,
    /// Wrapping sum of [`mix`] over every word, kept current by
    /// [`Image::write`] so hashing an image never reads its words.
    hash: u64,
}

impl Image {
    fn new(words: &[i64]) -> Self {
        let pages = words
            .chunks(PAGE)
            .map(|chunk| {
                let mut page = [0; PAGE];
                page[..chunk.len()].copy_from_slice(chunk);
                Rc::new(page)
            })
            .collect();
        let terms = words.iter().enumerate().map(|(i, &v)| mix(i, v));
        Image {
            pages,
            len: words.len(),
            hash: terms.fold(0, u64::wrapping_add),
        }
    }

    /// Index of `addr` in the image, or `None` for a wild address.
    fn index(&self, addr: i64) -> Option<usize> {
        let off = addr.wrapping_sub(Layout::GUARD);
        (0..self.len as i64).contains(&off).then_some(off as usize)
    }

    /// Total-semantics read: 0 for wild addresses.
    fn read(&self, addr: i64) -> i64 {
        self.index(addr)
            .map_or(0, |i| self.pages[i / PAGE][i % PAGE])
    }

    /// Total-semantics write: dropped for wild addresses. Writing the
    /// value a word already holds changes nothing and copies nothing.
    fn write(&mut self, addr: i64, val: i64) {
        let Some(i) = self.index(addr) else {
            return;
        };
        let old = self.pages[i / PAGE][i % PAGE];
        if old != val {
            self.hash = self
                .hash
                .wrapping_sub(mix(i, old))
                .wrapping_add(mix(i, val));
            let pages = Rc::make_mut(&mut self.pages);
            Rc::make_mut(&mut pages[i / PAGE])[i % PAGE] = val;
        }
    }
}

/// Equality by content: hashes first, then words only of pages that are
/// not the same allocation, so states that reach equal memory by
/// different paths still merge.
impl PartialEq for Image {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.len == other.len
            && (Rc::ptr_eq(&self.pages, &other.pages)
                || self
                    .pages
                    .iter()
                    .zip(other.pages.iter())
                    .all(|(a, b)| Rc::ptr_eq(a, b) || a == b))
    }
}

impl Eq for Image {}

impl Hash for Image {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Odd base of a store buffer's rolling hash. Being odd, it has an
/// inverse modulo 2^64, so retiring the oldest store can take its term
/// back out.
const BASE: u64 = 0x9e37_79b9_7f4a_7c15;

/// [`BASE`]'s inverse modulo 2^64, by Newton's iteration: an odd `b`
/// is its own inverse modulo 8, and each step doubles the correct low
/// bits (3, 6, 12, 24, 48, 96).
const BASE_INV: u64 = {
    let mut x = BASE;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(BASE.wrapping_mul(x)));
        step += 1;
    }
    x
};

/// A TSO store buffer, oldest first: `(addr, value)` pairs shared
/// copy-on-write between a state and its successors. Retiring the oldest
/// store advances a head index and copies nothing; a push copies the
/// live stores.
///
/// Its hash is the polynomial Σ mix(aᵢ, vᵢ)·BASEⁿ⁻¹⁻ⁱ over its `n`
/// stores, oldest first, kept current by push and retire: equal stores
/// hash equally whatever their history.
#[derive(Clone)]
struct Buffer {
    /// The stores are `entries[head..]`.
    entries: Rc<Vec<(i64, i64)>>,
    head: usize,
    hash: u64,
    /// `BASE` to the power of the number of stores.
    pow: u64,
}

impl Buffer {
    fn new() -> Self {
        Buffer {
            entries: Rc::default(),
            head: 0,
            hash: 0,
            pow: 1,
        }
    }

    /// The buffered stores, oldest first.
    fn stores(&self) -> &[(i64, i64)] {
        &self.entries[self.head..]
    }

    fn is_empty(&self) -> bool {
        self.head == self.entries.len()
    }

    /// The value of the youngest buffered store to `addr`, if any.
    fn forward(&self, addr: i64) -> Option<i64> {
        let youngest = self.stores().iter().rev().find(|&&(a, _)| a == addr);
        youngest.map(|&(_, val)| val)
    }

    /// Appends a store. Every visited state keeps its buffer, so a push
    /// copies the live stores into a vector of its own.
    fn push(&mut self, addr: i64, val: i64) {
        let mut entries = Vec::with_capacity(self.stores().len() + 1);
        entries.extend_from_slice(self.stores());
        entries.push((addr, val));
        self.entries = Rc::new(entries);
        self.head = 0;
        self.hash = self
            .hash
            .wrapping_mul(BASE)
            .wrapping_add(mix(addr as usize, val));
        self.pow = self.pow.wrapping_mul(BASE);
    }

    /// Removes and returns the oldest store; the buffer must not be
    /// empty.
    fn retire(&mut self) -> (i64, i64) {
        let (addr, val) = self.entries[self.head];
        self.head += 1;
        self.pow = self.pow.wrapping_mul(BASE_INV);
        self.hash = self
            .hash
            .wrapping_sub(mix(addr as usize, val).wrapping_mul(self.pow));
        (addr, val)
    }
}

/// Equality by content, as [`Image`] does it: hashes, then the stores
/// unless both are the same stores of the same allocation.
impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Rc::ptr_eq(&self.entries, &other.entries) && self.head == other.head
                || self.stores() == other.stores())
    }
}

impl Eq for Buffer {}

impl Hash for Buffer {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One thread of an explored state.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Thread {
    frame: Frame,
    done: bool,
    ret: i64,
    buffer: Buffer,
    /// Weak window: fetched, unexecuted instruction ids in program order.
    window: Vec<u32>,
}

/// One explored state. Its threads are shared with the state it came
/// from, so a move copies and rehashes only the thread that moved.
/// Equality is by content: `Rc` of an `Eq` type compares pointers first,
/// then values.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    mem: Image,
    threads: Vec<Rc<Hashed<Thread>>>,
}

/// The hash the explorer gives a value: the visited set's hasher.
fn hash_of<T: Hash>(value: &T) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one(value)
}

/// A value with its hash, computed once: a thread when a move changes
/// it, a state when it is generated. Equality compares the hashes before
/// the values, and the visited set hashes the stored hash, so growing the
/// set never re-hashes a state.
#[derive(Clone)]
struct Hashed<T> {
    hash: u64,
    value: T,
}

impl<T: Hash> Hashed<T> {
    fn new(value: T) -> Self {
        let mut hashed = Hashed { hash: 0, value };
        hashed.rehash();
        hashed
    }

    /// Brings the hash up to date after the value changed.
    fn rehash(&mut self) {
        self.hash = hash_of(&self.value);
    }
}

impl<T: Eq> PartialEq for Hashed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.value == other.value
    }
}

impl<T: Eq> Eq for Hashed<T> {}

impl<T> Hash for Hashed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One transition of one thread.
#[derive(Copy, Clone)]
enum Move {
    /// Retire thread `.0`'s oldest buffered store (TSO).
    Retire(usize),
    /// Execute slot `.1` of thread `.0`: a window position under the weak
    /// model, else the program counter (slot 0).
    Exec(usize, usize),
}

/// Full fences and atomics: under TSO they wait for an empty store
/// buffer; in the weak window they execute only as the oldest entry and
/// hold back every younger one.
fn is_barrier(kind: &InstKind) -> bool {
    matches!(
        kind,
        InstKind::Fence {
            kind: FenceKind::Full
        } | InstKind::AtomicRmw { .. }
            | InstKind::AtomicCas { .. }
    )
}

/// Is executing `kind` *invisible* — thread-local, commuting with every
/// transition of every other thread? Invisible moves touch neither shared
/// memory nor the store buffer: register ops, branches and compiler
/// directives; full fences and returns when the store buffer is empty
/// (they then degenerate to no-ops and control flow); and so, under the
/// weak model, any ready window entry with no memory effect. Executing
/// one can never disable another ready move of the same thread either
/// (it only removes readiness blockers), so it is a sound ample set of
/// size one.
fn invisible(kind: &InstKind, buffer_empty: bool) -> bool {
    match kind {
        _ if kind.is_mem_access() => false,
        InstKind::Fence {
            kind: FenceKind::Full,
        }
        | InstKind::Ret { .. } => buffer_empty,
        _ => true,
    }
}

/// The explorer for one thread group under one model.
struct Explorer<'m> {
    funcs: Vec<&'m Function>,
    layout: Layout,
    model: LitmusModel,
}

impl Explorer<'_> {
    fn weak(&self) -> bool {
        matches!(self.model, LitmusModel::Weak { .. })
    }

    /// How many slots thread `t` may execute from.
    fn slots(&self, t: &Thread) -> usize {
        if t.done {
            0
        } else if self.weak() {
            t.window.len()
        } else {
            1
        }
    }

    /// The instruction in slot `p` of thread `ti`.
    fn inst(&self, ti: usize, t: &Thread, p: usize) -> InstId {
        if self.weak() {
            InstId::new(t.window[p] as usize)
        } else {
            t.frame.pc(self.funcs[ti])
        }
    }

    /// May slot `p` of thread `ti`, holding `kind`, execute now?
    fn enabled(&self, ti: usize, t: &Thread, p: usize, kind: &InstKind) -> bool {
        if self.weak() {
            self.ready(ti, t, p)
        } else {
            t.buffer.is_empty() || !is_barrier(kind)
        }
    }

    /// Fills `out` with the moves to explore from `s`, in push order.
    /// Ample-set reduction: the first enabled invisible move, if any, is
    /// explored alone, since it commutes with every other enabled move and
    /// can never be disabled, which preserves the reachable outcome set.
    fn moves(&self, s: &State, out: &mut Vec<Move>) {
        out.clear();
        let threads = || s.threads.iter().map(|t| &t.value).enumerate();
        for (ti, t) in threads() {
            for p in 0..self.slots(t) {
                let kind = &self.funcs[ti].inst(self.inst(ti, t, p)).kind;
                if invisible(kind, t.buffer.is_empty()) && self.enabled(ti, t, p, kind) {
                    out.push(Move::Exec(ti, p));
                    return;
                }
            }
        }
        for (ti, t) in threads() {
            if !t.buffer.is_empty() {
                out.push(Move::Retire(ti));
            }
            for p in 0..self.slots(t) {
                let kind = &self.funcs[ti].inst(self.inst(ti, t, p)).kind;
                if self.enabled(ti, t, p, kind) {
                    out.push(Move::Exec(ti, p));
                }
            }
        }
    }

    /// Applies `m` to `s`: copies the moving thread if `s` shares it,
    /// and rehashes it.
    fn apply(&self, s: &mut State, m: Move) {
        let (Move::Retire(ti) | Move::Exec(ti, _)) = m;
        let t = Rc::make_mut(&mut s.threads[ti]);
        match m {
            Move::Retire(_) => {
                let (addr, val) = t.value.buffer.retire();
                s.mem.write(addr, val);
            }
            Move::Exec(_, p) => {
                self.exec(&mut s.mem, ti, &mut t.value, p);
                self.fetch(ti, &mut t.value);
            }
        }
        t.rehash();
    }

    /// Executes slot `p` of thread `ti`. Under TSO a store enters the
    /// buffer and a load forwards from it; under SC and the weak model
    /// stores write memory directly. Only under SC and TSO does the
    /// program counter advance: under the weak model it is the fetch
    /// cursor, which [`Self::fetch`] and conditional branches move.
    fn exec(&self, mem: &mut Image, ti: usize, t: &mut Thread, p: usize) {
        let func = self.funcs[ti];
        let layout = &self.layout;
        let iid = self.inst(ti, t, p);
        if self.weak() {
            t.window.remove(p);
        }
        let kind = &func.inst(iid).kind;
        let f = &mut t.frame;
        let mut advance = !self.weak();
        if !f.exec_register(iid, kind, layout) {
            match *kind {
                InstKind::Load { addr } => {
                    let a = f.eval(addr, layout);
                    f.results[iid.index()] = t.buffer.forward(a).unwrap_or_else(|| mem.read(a));
                }
                InstKind::Store { addr, val } => {
                    let (a, v) = (f.eval(addr, layout), f.eval(val, layout));
                    if self.model == LitmusModel::Tso {
                        t.buffer.push(a, v);
                    } else {
                        mem.write(a, v);
                    }
                }
                InstKind::AtomicRmw { op, addr, val } => {
                    let a = f.eval(addr, layout);
                    let old = mem.read(a);
                    f.results[iid.index()] = old;
                    mem.write(a, op.eval(old, f.eval(val, layout)));
                }
                InstKind::AtomicCas {
                    addr,
                    expected,
                    new,
                } => {
                    let a = f.eval(addr, layout);
                    let old = mem.read(a);
                    f.results[iid.index()] = old;
                    if old == f.eval(expected, layout) {
                        mem.write(a, f.eval(new, layout));
                    }
                }
                InstKind::Fence { .. } => {}
                InstKind::Br { target } => {
                    f.jump(target);
                    advance = false;
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let taken = if f.eval(cond, layout) != 0 {
                        then_bb
                    } else {
                        else_bb
                    };
                    f.jump(taken);
                    advance = false;
                }
                InstKind::Ret { val } => {
                    t.ret = val.map_or(0, |v| f.eval(v, layout));
                    t.done = true;
                    // Return drains the buffer (join publishes everything).
                    for &(a, v) in std::mem::replace(&mut t.buffer, Buffer::new()).stores() {
                        mem.write(a, v);
                    }
                    t.window.clear();
                    advance = false;
                }
                _ => unreachable!("validated: no calls, intrinsics or alloc"),
            }
        }
        if advance {
            t.frame.idx += 1;
        }
    }

    /// Under the weak model, fetches into `t`'s window until it is full,
    /// `t` is done, or the newest entry is an unresolved conditional
    /// branch or a return. Unconditional branches and compiler directives
    /// are resolved here and never enter the window.
    fn fetch(&self, ti: usize, t: &mut Thread) {
        let LitmusModel::Weak { window } = self.model else {
            return;
        };
        let func = self.funcs[ti];
        while !t.done && t.window.len() < window {
            if let Some(&last) = t.window.last() {
                if matches!(
                    func.inst(InstId::new(last as usize)).kind,
                    InstKind::CondBr { .. } | InstKind::Ret { .. }
                ) {
                    return;
                }
            }
            let iid = t.frame.pc(func);
            match func.inst(iid).kind {
                InstKind::Br { target } => t.frame.jump(target),
                // No runtime presence on weak hardware.
                InstKind::Fence {
                    kind: FenceKind::Compiler,
                } => t.frame.idx += 1,
                _ => {
                    t.window.push(iid.index() as u32);
                    t.frame.idx += 1;
                }
            }
        }
    }

    /// Is window entry `p` of thread `ti` ready to execute?
    fn ready(&self, ti: usize, t: &Thread, p: usize) -> bool {
        let func = self.funcs[ti];
        let kind = &func.inst(InstId::new(t.window[p] as usize)).kind;
        let older = || {
            t.window[..p]
                .iter()
                .map(|&q| &func.inst(InstId::new(q as usize)).kind)
        };
        let in_window = |v: Value| match v {
            Value::Inst(d) => t.window.iter().any(|&w| w as usize == d.index()),
            _ => false,
        };
        // Data dependences: all operand definitions executed.
        let mut deps_ok = true;
        kind.for_each_operand(|v| deps_ok &= !in_window(v));
        if !deps_ok {
            return false;
        }
        // Oldest-only operations.
        if is_barrier(kind) || matches!(kind, InstKind::Ret { .. }) {
            return p == 0;
        }
        // Earlier full fences / atomics block everything younger.
        if older().any(is_barrier) {
            return false;
        }
        // Local-register ordering (conservative).
        if let InstKind::ReadLocal { local } | InstKind::WriteLocal { local, .. } = *kind {
            let writes = matches!(kind, InstKind::WriteLocal { .. });
            if older().any(|q| match *q {
                InstKind::WriteLocal { local: m, .. } => m == local,
                InstKind::ReadLocal { local: m } => m == local && writes,
                _ => false,
            }) {
                return false;
            }
        }
        // Same-address memory ordering.
        if let Some(my_addr) = kind.mem_addr() {
            if in_window(my_addr) {
                return false; // address not yet computed (also a data dep)
            }
            let my = t.frame.eval(my_addr, &self.layout);
            for qa in older().filter_map(InstKind::mem_addr) {
                // An unknown earlier address is conservatively a conflict;
                // a known equal one must stay ordered.
                if in_window(qa) || t.frame.eval(qa, &self.layout) == my {
                    return false;
                }
            }
        }
        true
    }
}

/// Enumerates all final outcomes of `threads` under `model`.
pub fn enumerate(
    module: &Module,
    threads: &[(FuncId, Vec<i64>)],
    model: LitmusModel,
) -> BTreeSet<LitmusOutcome> {
    let mut fuel = u64::MAX;
    enumerate_bounded(module, threads, model, &mut fuel).expect("unbounded enumeration")
}

/// Budgeted variant of [`enumerate`]: explores at most `*fuel` distinct
/// states, decrementing `fuel` as it goes (so one budget can be threaded
/// through several calls), and returns `None` if the budget runs out
/// before the state space is exhausted. Functions must satisfy
/// [`enumerable`] or this panics like [`enumerate`].
pub fn enumerate_bounded(
    module: &Module,
    threads: &[(FuncId, Vec<i64>)],
    model: LitmusModel,
    fuel: &mut u64,
) -> Option<BTreeSet<LitmusOutcome>> {
    let layout = Layout::of(module);
    let words = memory_image(module, &layout, Layout::GUARD, layout.heap_start);
    let ex = Explorer {
        funcs: threads.iter().map(|(f, _)| module.func(*f)).collect(),
        layout,
        model: match model {
            LitmusModel::Weak { window } => LitmusModel::Weak {
                window: window.max(2),
            },
            m => m,
        },
    };
    let init = State {
        mem: Image::new(&words),
        threads: threads
            .iter()
            .enumerate()
            .map(|(ti, (f, args))| {
                let func = module.func(*f);
                validate(func);
                let mut t = Thread {
                    frame: Frame::new(*f, func, args.clone()),
                    done: false,
                    ret: 0,
                    buffer: Buffer::new(),
                    window: Vec::new(),
                };
                ex.fetch(ti, &mut t);
                Rc::new(Hashed::new(t))
            })
            .collect(),
    };

    let mut outcomes = BTreeSet::new();
    let mut visited: FastSet<Rc<Hashed<State>>> = FastSet::default();
    let mut stack = Vec::new();
    // Hashes a generated state once and drops it if it was seen before.
    // A new state costs one unit of fuel and one allocation, which the
    // visited set and the stack share. `false`: the fuel ran out.
    let mut discover = |state: State, stack: &mut Vec<Rc<Hashed<State>>>| {
        let node = Hashed::new(state);
        if visited.contains(&node) {
            return true;
        }
        if *fuel == 0 {
            return false;
        }
        *fuel -= 1;
        let node = Rc::new(node);
        visited.insert(Rc::clone(&node));
        stack.push(node);
        true
    };
    if !discover(init, &mut stack) {
        return None;
    }
    let mut moves = Vec::new();
    while let Some(node) = stack.pop() {
        let state = &node.value;
        if state.threads.iter().all(|t| t.value.done) {
            outcomes.insert(state.threads.iter().map(|t| t.value.ret).collect());
            continue;
        }
        ex.moves(state, &mut moves);
        for &m in &moves {
            let mut next = state.clone();
            ex.apply(&mut next, m);
            if !discover(next, &mut stack) {
                return None;
            }
        }
    }
    Some(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fence_ir::builder::{FunctionBuilder, ModuleBuilder};
    use std::collections::VecDeque;

    /// SB (store buffering): x=1; r=y || y=1; r=x.
    fn sb(with_fence: bool) -> (Module, Vec<(FuncId, Vec<i64>)>) {
        let mut mb = ModuleBuilder::new("sb");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mk = |mb: &mut ModuleBuilder, name: &str, a, b| {
            let mut fb = FunctionBuilder::new(name, 0);
            fb.store(a, 1i64);
            if with_fence {
                fb.fence(FenceKind::Full);
            }
            let r = fb.load(b);
            fb.ret(Some(r));
            mb.add_func(fb.build())
        };
        let p0 = mk(&mut mb, "p0", x, y);
        let p1 = mk(&mut mb, "p1", y, x);
        (mb.finish(), vec![(p0, vec![]), (p1, vec![])])
    }

    #[test]
    fn sb_relaxed_under_tso_not_sc() {
        let (m, t) = sb(false);
        let sc = enumerate(&m, &t, LitmusModel::Sc);
        let tso = enumerate(&m, &t, LitmusModel::Tso);
        assert!(!sc.contains(&vec![0, 0]), "SC forbids r1=r2=0");
        assert!(tso.contains(&vec![0, 0]), "TSO allows r1=r2=0");
        // TSO is a superset of SC outcomes.
        for o in &sc {
            assert!(tso.contains(o));
        }
    }

    #[test]
    fn sb_fixed_by_full_fences() {
        let (m, t) = sb(true);
        let tso = enumerate(&m, &t, LitmusModel::Tso);
        assert!(!tso.contains(&vec![0, 0]), "fences forbid r1=r2=0");
        let sc = enumerate(&m, &t, LitmusModel::Sc);
        assert_eq!(sc, tso, "fenced TSO == SC for SB");
    }

    /// MP: data=1; flag=1 || r1=flag; r2=data. Violation: r1=1 ∧ r2=0.
    fn mp(producer_fence: bool, consumer_fence: bool) -> (Module, Vec<(FuncId, Vec<i64>)>) {
        let mut mb = ModuleBuilder::new("mp");
        let data = mb.global("data", 1);
        let flag = mb.global("flag", 1);
        let mut p = FunctionBuilder::new("producer", 0);
        p.store(data, 1i64);
        if producer_fence {
            p.fence(FenceKind::Full);
        }
        p.store(flag, 1i64);
        p.ret(None);
        let pid = mb.add_func(p.build());
        let mut c = FunctionBuilder::new("consumer", 0);
        let r1 = c.load(flag);
        if consumer_fence {
            c.fence(FenceKind::Full);
        }
        let r2 = c.load(data);
        let r1x = c.mul(r1, 10i64);
        let obs = c.add(r1x, r2);
        c.ret(Some(obs));
        let cid = mb.add_func(c.build());
        (mb.finish(), vec![(pid, vec![]), (cid, vec![])])
    }

    #[test]
    fn mp_safe_under_tso_broken_under_weak() {
        let (m, t) = mp(false, false);
        let tso = enumerate(&m, &t, LitmusModel::Tso);
        // Violation outcome: consumer observes flag=1, data=0 → 10.
        assert!(
            !tso.iter().any(|o| o[1] == 10),
            "TSO preserves w→w and r→r: MP is safe"
        );
        let weak = enumerate(&m, &t, LitmusModel::Weak { window: 4 });
        assert!(
            weak.iter().any(|o| o[1] == 10),
            "weak model allows the MP violation: {weak:?}"
        );
    }

    #[test]
    fn mp_fixed_by_full_fences_on_weak() {
        let (m, t) = mp(true, true);
        let weak = enumerate(&m, &t, LitmusModel::Weak { window: 4 });
        assert!(
            !weak.iter().any(|o| o[1] == 10),
            "full fences restore MP on weak: {weak:?}"
        );
    }

    /// Dekker-style mutual exclusion flags: both threads entering is the
    /// violation; requires w→r fences on TSO.
    fn dekker(with_fence: bool) -> (Module, Vec<(FuncId, Vec<i64>)>) {
        let mut mb = ModuleBuilder::new("dekker");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mk = |mb: &mut ModuleBuilder, name: &str, mine, other| {
            let mut fb = FunctionBuilder::new(name, 0);
            fb.store(mine, 1i64);
            if with_fence {
                fb.fence(FenceKind::Full);
            }
            let o = fb.load(other);
            let entered = fb.eq(o, 0i64); // 1 = entered critical section
            fb.ret(Some(entered));
            mb.add_func(fb.build())
        };
        let p0 = mk(&mut mb, "p0", x, y);
        let p1 = mk(&mut mb, "p1", y, x);
        (mb.finish(), vec![(p0, vec![]), (p1, vec![])])
    }

    #[test]
    fn dekker_breaks_on_tso_without_fences() {
        let (m, t) = dekker(false);
        let tso = enumerate(&m, &t, LitmusModel::Tso);
        assert!(tso.contains(&vec![1, 1]), "both enter without fences");
        let (m2, t2) = dekker(true);
        let fixed = enumerate(&m2, &t2, LitmusModel::Tso);
        assert!(!fixed.contains(&vec![1, 1]), "fences restore exclusion");
    }

    /// Address dependency is respected by the weak model: MP-with-pointers
    /// needs no consumer fence (the paper's Fig. 5 address acquire).
    #[test]
    fn weak_respects_address_dependency() {
        let mut mb = ModuleBuilder::new("mpp");
        let x = mb.global_init("x", 1, vec![0]);
        let z = mb.global_init("z", 1, vec![7]);
        let y = mb.global("y", 1);
        // Producer: x = 1; fence; y = &x   (publication with release).
        let mut p = FunctionBuilder::new("producer", 0);
        p.store(x, 1i64);
        p.fence(FenceKind::Full);
        p.store(y, x);
        p.ret(None);
        let pid = mb.add_func(p.build());
        // Consumer: r = y; if r != 0 { r1 = *r } else { r1 = -1 }.
        let mut c = FunctionBuilder::new("consumer", 0);
        let r = c.load(y);
        let z_addr = fence_ir::Value::Global(z);
        let fallback = c.select(r, r, z_addr); // r==0 ⇒ read z instead
        let r1 = c.load(fallback);
        c.ret(Some(r1));
        let cid = mb.add_func(c.build());
        let m = mb.finish();
        let weak = enumerate(
            &m,
            &[(pid, vec![]), (cid, vec![])],
            LitmusModel::Weak { window: 4 },
        );
        // If consumer saw y=&x (r!=0) it must read x=1 (address dep), never 0.
        // If it saw y=0 it reads z=7.
        for o in &weak {
            assert!(o[1] == 1 || o[1] == 7, "unexpected outcome {o:?}");
        }
    }

    /// CAS is atomic under every model: two increments never lose updates.
    #[test]
    fn rmw_atomicity() {
        let mut mb = ModuleBuilder::new("ctr");
        let c = mb.global("c", 1);
        let mut fb = FunctionBuilder::new("inc", 0);
        let old = fb.rmw(fence_ir::RmwOp::Add, c, 1i64);
        fb.ret(Some(old));
        let f = mb.add_func(fb.build());
        let m = mb.finish();
        for model in [
            LitmusModel::Sc,
            LitmusModel::Tso,
            LitmusModel::Weak { window: 4 },
        ] {
            let out = enumerate(&m, &[(f, vec![]), (f, vec![])], model);
            // One thread sees 0, the other 1 — never both 0.
            assert_eq!(
                out,
                BTreeSet::from([vec![0, 1], vec![1, 0]]),
                "atomicity under {model:?}"
            );
        }
    }

    /// SB with `n` stores per thread: x=1..=n; r=y || y=1..=n; r=x. Under
    /// TSO each thread buffers up to `n` stores.
    fn sb_stores(n: i64) -> (Module, Vec<(FuncId, Vec<i64>)>) {
        let mut mb = ModuleBuilder::new("sbn");
        let x = mb.global("x", 1);
        let y = mb.global("y", 1);
        let mk = |mb: &mut ModuleBuilder, name: &str, a, b| {
            let mut fb = FunctionBuilder::new(name, 0);
            for v in 1..=n {
                fb.store(a, v);
            }
            let r = fb.load(b);
            fb.ret(Some(r));
            mb.add_func(fb.build())
        };
        let p0 = mk(&mut mb, "p0", x, y);
        let p1 = mk(&mut mb, "p1", y, x);
        (mb.finish(), vec![(p0, vec![]), (p1, vec![])])
    }

    /// The fuel a call spends is its number of distinct states: exactly
    /// that much finishes with the same outcomes, one unit less runs out,
    /// and both leave no fuel behind.
    #[test]
    fn fuel_runs_out_exactly_past_the_distinct_states() {
        let sb1 = sb(false);
        let sb4 = sb_stores(4);
        for ((m, t), model, states) in [
            (&sb1, LitmusModel::Sc, 21),
            (&sb1, LitmusModel::Tso, 52),
            (&sb1, LitmusModel::Weak { window: 4 }, 41),
            (&sb4, LitmusModel::Tso, 1000),
        ] {
            let mut fuel = u64::MAX;
            let all = enumerate_bounded(m, t, model, &mut fuel);
            assert!(all.is_some(), "{model:?}");
            let n = u64::MAX - fuel;
            assert_eq!(n, states, "distinct states of {} under {model:?}", m.name);
            let mut fuel = n;
            assert_eq!(enumerate_bounded(m, t, model, &mut fuel), all, "{model:?}");
            assert_eq!(fuel, 0, "{model:?}");
            let mut fuel = n - 1;
            assert_eq!(enumerate_bounded(m, t, model, &mut fuel), None, "{model:?}");
            assert_eq!(fuel, 0, "{model:?}");
        }
    }

    /// Seeded random words for the image test (splitmix64).
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(0, *seed as i64)
    }

    #[test]
    fn paged_image_behaves_like_a_flat_image() {
        // Three pages, the last one partial.
        let init: Vec<i64> = (0..2 * PAGE as i64 + 7)
            .map(|i| if i % 3 == 0 { i } else { 0 })
            .collect();
        let len = init.len() as i64;
        let at = |i: i64| Layout::GUARD + i;
        let word = |i: i64| usize::try_from(i).ok().filter(|&w| w < init.len());
        let fresh = Image::new(&init);
        let mut seed = 19;
        for _ in 0..16 {
            let mut img = fresh.clone();
            let mut flat = init.clone();
            for _ in 0..200 {
                let r = next(&mut seed);
                // Word -4 up to len + 3: wild below, in range, wild above.
                let i = (r % (len as u64 + 8)) as i64 - 4;
                let val = match (r >> 32) % 4 {
                    0 => word(i).map_or(5, |w| flat[w]), // the value already there
                    1 => word(i).map_or(0, |w| init[w]), // back to the initial value
                    _ => (r >> 40) as i64 % 5,           // few values, so words repeat
                };
                img.write(at(i), val);
                if let Some(w) = word(i) {
                    flat[w] = val;
                }
                for j in -3..len + 3 {
                    let want = word(j).map_or(0, |w| flat[w]);
                    assert_eq!(img.read(at(j)), want, "word {j}");
                }
            }
            // The same contents written in another order, and built anew.
            let mut reordered = fresh.clone();
            for i in (0..len).rev() {
                reordered.write(at(i), flat[i as usize]);
            }
            for other in [reordered, Image::new(&flat)] {
                assert!(img == other, "equal contents compare equal");
                assert_eq!(hash_of(&img), hash_of(&other));
            }
        }
        // Writing a word and then its initial value back restores the image.
        for i in 0..len {
            let mut img = fresh.clone();
            img.write(at(i), init[i as usize] + 1);
            assert!(img != fresh, "word {i} changed");
            img.write(at(i), init[i as usize]);
            assert!(img == fresh, "word {i} restored");
            assert_eq!(hash_of(&img), hash_of(&fresh), "word {i} restored");
        }
    }

    /// A buffer holding `stores`, reached by pushing `junk` other stores
    /// first and retiring them: a fresh allocation with a nonzero head.
    fn buffer_of(stores: &VecDeque<(i64, i64)>, junk: i64) -> Buffer {
        let mut buf = Buffer::new();
        for j in 0..junk {
            buf.push(j, -j - 1);
        }
        for &(addr, val) in stores {
            buf.push(addr, val);
        }
        for _ in 0..junk {
            buf.retire();
        }
        buf
    }

    /// Compares `buf` with the flat FIFO `flat`: contents, forwarding, and
    /// equality and hash against the same stores reached other ways.
    fn assert_buffer_is(buf: &Buffer, flat: &VecDeque<(i64, i64)>) {
        assert!(buf.stores().iter().eq(flat.iter()), "stores");
        assert_eq!(buf.is_empty(), flat.is_empty());
        for addr in -1..6 {
            let youngest = flat.iter().rev().find(|&&(a, _)| a == addr);
            assert_eq!(buf.forward(addr), youngest.map(|&(_, v)| v), "addr {addr}");
        }
        for other in [buf.clone(), buffer_of(flat, 0), buffer_of(flat, 3)] {
            assert!(*buf == other, "equal stores compare equal");
            assert_eq!(hash_of(buf), hash_of(&other));
        }
        let mut longer = buf.clone();
        longer.push(0, 0);
        assert!(*buf != longer, "one more store");
    }

    #[test]
    fn shared_buffer_behaves_like_a_flat_fifo() {
        assert_eq!(BASE.wrapping_mul(BASE_INV), 1, "BASE_INV inverts BASE");
        let mut seed = 23;
        for _ in 0..16 {
            let mut buf = Buffer::new();
            let mut flat = VecDeque::new();
            // Earlier versions, shared with `buf` until it moves on.
            let mut kept = Vec::new();
            for _ in 0..200 {
                let r = next(&mut seed);
                if r.is_multiple_of(4) {
                    kept.push((buf.clone(), flat.clone()));
                }
                // Pushes outnumber retires, so the buffer grows and shrinks.
                if (r >> 8) % 5 < 2 && !flat.is_empty() {
                    assert_eq!(Some(buf.retire()), flat.pop_front());
                } else {
                    // Few addresses and values, so stores repeat.
                    let (addr, val) = ((r >> 16) % 6, (r >> 24) % 3);
                    buf.push(addr as i64, val as i64);
                    flat.push_back((addr as i64, val as i64));
                }
                assert_buffer_is(&buf, &flat);
            }
            for (old, old_flat) in &kept {
                assert_buffer_is(old, old_flat);
            }
            // Retired down to nothing, it equals a new buffer.
            while flat.pop_front().is_some() {
                buf.retire();
            }
            assert!(buf == Buffer::new(), "fully retired");
            assert_eq!(hash_of(&buf), hash_of(&Buffer::new()));
        }
    }

    /// SC ⊆ TSO ⊆ (roughly) Weak on a mixed test.
    #[test]
    fn model_inclusion() {
        let (m, t) = sb(false);
        let sc = enumerate(&m, &t, LitmusModel::Sc);
        let tso = enumerate(&m, &t, LitmusModel::Tso);
        let weak = enumerate(&m, &t, LitmusModel::Weak { window: 4 });
        for o in &sc {
            assert!(tso.contains(o));
        }
        for o in &tso {
            assert!(weak.contains(o), "TSO outcome {o:?} missing from weak");
        }
    }
}
